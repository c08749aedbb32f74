"""Acceptance, strong acceptance, retention cohorts, and temporal profiles."""

from __future__ import annotations

from datetime import date
from itertools import accumulate
from typing import Iterable, NamedTuple

from .edits import Category, MinorSubcategory, ModuleEditTag, SuggestionOutcome
from .events import CompletionEvent, RawEvent, UserTimeline

WEEKDAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")


class EmptyWindow(ValueError):
    pass


class AcceptanceSummary(NamedTuple):
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
    minor_breakdown: dict[str, int]  # _MINOR_KEYS order; sums to minor_edits
    module_edited: int  # outcomes with at least one module-edit tag
    module_edit_tags: dict[str, int]  # ModuleEditTag order; tags may overlap
    unparseable_documents: int


# "unclassified": a minor edit, module unchanged, whose change fits no subcategory.
_MINOR_KEYS = ("module_changed", *(s.value for s in MinorSubcategory), "unclassified")


def acceptance_summary(outcomes: Iterable[SuggestionOutcome]) -> AcceptanceSummary:
    """Every outcome number in the report, from one pass over classified outcomes.

    minor_edits covers every minor edit, including those whose module changed;
    module_changed_minor is that subset.  fully + minor + major + deleted +
    unresolved = initially_accepted.
    """
    total = lines = tokens = module_edited = unparseable = 0
    categories = dict.fromkeys(Category, 0)
    minor = dict.fromkeys(_MINOR_KEYS, 0)
    tags = {tag.value: 0 for tag in ModuleEditTag}
    for outcome in outcomes:
        total += 1
        lines += outcome.suggestion.line_count
        tokens += outcome.suggestion.token_count
        verdict = outcome.verdict
        categories[verdict.category] += 1
        if verdict.category is Category.MINOR_EDIT:
            if verdict.module_changed:
                minor["module_changed"] += 1
            elif verdict.minor_subcategory is None:
                minor["unclassified"] += 1
            else:
                minor[verdict.minor_subcategory.value] += 1
        if verdict.module_edit_tags:
            module_edited += 1
            for tag in verdict.module_edit_tags:
                tags[tag.value] += 1
        if verdict.doc_unparseable:
            unparseable += 1

    initially_accepted = total - categories[Category.REJECTED] - categories[Category.IGNORED]
    module_changed_minor = minor["module_changed"]
    # Strongly accepted: kept unchanged, or edited by less than the threshold
    # with the module left alone; unresolved outcomes count as kept.
    strong = (
        categories[Category.FULLY_ACCEPTED]
        + categories[Category.MINOR_EDIT] - module_changed_minor
        + categories[Category.UNRESOLVED]
    )
    return AcceptanceSummary(
        total_suggestions=total,
        initially_accepted=initially_accepted,
        fully_accepted=categories[Category.FULLY_ACCEPTED],
        minor_edits=categories[Category.MINOR_EDIT],
        major_edits=categories[Category.MAJOR_EDIT],
        deleted_after_accept=categories[Category.DELETED_AFTER_ACCEPT],
        module_changed_minor=module_changed_minor,
        unresolved=categories[Category.UNRESOLVED],
        avg_lines_per_suggestion=lines / total if total else 0.0,
        avg_tokens_per_suggestion=tokens / total if total else 0.0,
        initial_rate=initially_accepted / total if total else 0.0,
        strong_rate=strong / total if total else 0.0,
        minor_breakdown=minor,
        module_edited=module_edited,
        module_edit_tags=tags,
        unparseable_documents=unparseable,
    )


def returning_user_cohort(timelines: Iterable[UserTimeline]) -> set[str]:
    """Users active on at least two distinct local calendar days."""
    return {t.user_id for t in timelines if len(t.active_days) >= 2}


class RetentionPoint(NamedTuple):
    day: int
    eligible_users: int
    returned_users: int
    percentage: float


class RetentionCurve(NamedTuple):
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


class TemporalProfile(NamedTuple):
    daily_counts: dict[date, int]
    weekday_means: dict[str, float]


def temporal_profile(events: Iterable[RawEvent], window: tuple[date, date]) -> TemporalProfile:
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

    start, end = window
    in_window = {d: c for d, c in sorted(daily.items()) if start <= d <= end}
    totals = [0] * 7
    for day, count in in_window.items():
        totals[day.weekday()] += count
    # Whole weeks hold each weekday once; the days left over run from start's on.
    weeks, rest = divmod(max((end - start).days + 1, 0), 7)
    day_counts = [weeks + ((i - start.weekday()) % 7 < rest) for i in range(7)]

    means = {
        WEEKDAY_NAMES[i]: (totals[i] / day_counts[i] if day_counts[i] else 0.0)
        for i in range(7)
    }
    return TemporalProfile(daily_counts=in_window, weekday_means=means)
