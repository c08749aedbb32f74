"""Acceptance, strong acceptance, retention cohorts, and temporal profiles."""

from __future__ import annotations

import calendar
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import accumulate
from typing import Iterable

from .edits import Category, SuggestionOutcome
from .events import CompletionEvent, RawEvent, UserTimeline

WEEKDAY_NAMES = tuple(calendar.day_name)  # Monday .. Sunday


class NegativeNumerator(ValueError):
    pass


class EmptyWindow(ValueError):
    pass


@dataclass(frozen=True)
class AcceptanceSummary:
    total_suggestions: int
    initially_accepted: int
    fully_accepted: int
    minor_edits: int
    major_edits: int
    deleted_after_accept: int
    module_changed_minor: int
    unresolved: int
    avg_lines_per_suggestion: float
    avg_tokens_per_suggestion: float
    initial_rate: float
    strong_rate: float


def acceptance_summary(outcomes: Iterable[SuggestionOutcome]) -> AcceptanceSummary:
    """Aggregate classified outcomes into the headline acceptance counts.

    minor_edits covers every minor edit, including those whose module changed;
    module_changed_minor is that subset.  fully + minor + major + deleted +
    unresolved = initially_accepted.
    """
    outcomes = list(outcomes)
    total = len(outcomes)
    accepted = [o for o in outcomes if o.category in _ACCEPTED_CATEGORIES]
    counts = {
        Category.FULLY_ACCEPTED: 0,
        Category.MINOR_EDIT: 0,
        Category.MAJOR_EDIT: 0,
        Category.DELETED_AFTER_ACCEPT: 0,
        Category.UNRESOLVED: 0,
    }
    module_changed_minor = 0
    for outcome in accepted:
        counts[outcome.category] += 1
        if outcome.category is Category.MINOR_EDIT and outcome.module_changed:
            module_changed_minor += 1

    initially_accepted = len(accepted)
    initial_rate = initially_accepted / total if total else 0.0
    strong_rate = (
        _strong_rate(
            total,
            initially_accepted,
            counts[Category.DELETED_AFTER_ACCEPT],
            counts[Category.MAJOR_EDIT],
            module_changed_minor,
        )
        if total
        else 0.0
    )
    return AcceptanceSummary(
        total_suggestions=total,
        initially_accepted=initially_accepted,
        fully_accepted=counts[Category.FULLY_ACCEPTED],
        minor_edits=counts[Category.MINOR_EDIT],
        major_edits=counts[Category.MAJOR_EDIT],
        deleted_after_accept=counts[Category.DELETED_AFTER_ACCEPT],
        module_changed_minor=module_changed_minor,
        unresolved=counts[Category.UNRESOLVED],
        avg_lines_per_suggestion=(
            sum(o.suggestion_lines for o in outcomes) / total if total else 0.0
        ),
        avg_tokens_per_suggestion=(
            sum(o.suggestion_tokens for o in outcomes) / total if total else 0.0
        ),
        initial_rate=initial_rate,
        strong_rate=strong_rate,
    )


_ACCEPTED_CATEGORIES = frozenset(
    {
        Category.FULLY_ACCEPTED,
        Category.MINOR_EDIT,
        Category.MAJOR_EDIT,
        Category.DELETED_AFTER_ACCEPT,
        Category.UNRESOLVED,
    }
)


def _strong_rate(total, accepted, deleted, major, module_changed_minor) -> float:
    numerator = accepted - deleted - major - module_changed_minor
    if numerator < 0:
        raise NegativeNumerator(
            f"strong-acceptance numerator is negative: {numerator}"
        )
    return numerator / total


def returning_user_cohort(timelines: Iterable[UserTimeline]) -> set[str]:
    """Users active on at least two distinct local calendar days."""
    return {t.user_id for t in timelines if len(t.active_days) >= 2}


@dataclass(frozen=True)
class RetentionPoint:
    day: int
    eligible_users: int
    returned_users: int
    percentage: float


@dataclass(frozen=True)
class RetentionCurve:
    window_end: date
    points: tuple[RetentionPoint, ...]


def retention_curve(
    timelines: Iterable[UserTimeline], horizon: int, window_end: date
) -> RetentionCurve:
    """Share of users active exactly N local calendar days after their first day.

    For day N only users whose first day is at least N days before window_end
    are eligible (they had a chance to return).  Day 0 is 100% by definition.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    # Whole-day offsets from each first day: no date is shifted out of range.
    last_eligible = [0] * (horizon + 1)  # users whose last eligible day is N
    returned = [0] * (horizon + 1)
    for timeline in timelines:
        last = min((window_end - timeline.first_day).days, horizon)
        if last >= 0:
            last_eligible[last] += 1
        for active in timeline.active_days:
            offset = (active - timeline.first_day).days
            if offset <= last:
                returned[offset] += 1
    eligible = list(accumulate(reversed(last_eligible)))[::-1]
    if not eligible[0]:
        raise EmptyWindow("no user cohort starts inside the window")

    points = tuple(
        RetentionPoint(day, users, came_back, 100.0 * came_back / users if users else 0.0)
        for day, (users, came_back) in enumerate(zip(eligible, returned))
    )
    return RetentionCurve(window_end=window_end, points=points)


@dataclass(frozen=True)
class TemporalProfile:
    daily_counts: dict[date, int]
    weekday_means: dict[str, float]
    window: tuple[date, date] | None


def temporal_profile(
    events: Iterable[RawEvent], window: tuple[date, date] | None = None
) -> TemporalProfile:
    """Completion requests per local date, and the mean count per weekday.

    The weekday mean divides by the number of such weekdays in the window, so
    dates with zero requests pull the mean down.  Events other than completion
    requests are ignored.
    """
    daily: dict[date, int] = {}
    for event in events:
        if type(event) is not CompletionEvent:
            continue
        daily[event.day] = daily.get(event.day, 0) + 1

    if window is None:
        if not daily:
            return TemporalProfile({}, {name: 0.0 for name in WEEKDAY_NAMES}, None)
        window = (min(daily), max(daily))

    start, end = window
    totals = [0] * 7
    day_counts = [0] * 7
    cursor = start
    while cursor <= end:
        weekday = cursor.weekday()
        day_counts[weekday] += 1
        totals[weekday] += daily.get(cursor, 0)
        cursor += timedelta(days=1)

    means = {
        WEEKDAY_NAMES[i]: (totals[i] / day_counts[i] if day_counts[i] else 0.0)
        for i in range(7)
    }
    in_window = {d: c for d, c in sorted(daily.items()) if start <= d <= end}
    return TemporalProfile(daily_counts=in_window, weekday_means=means, window=window)
