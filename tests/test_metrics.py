import json
import random
from datetime import date, timedelta
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tasklens.config import Config
from tasklens.edits import Category, MinorSubcategory, ModuleEditTag, SuggestionOutcome, Verdict
from tasklens.events import UserAction, build_timelines, parse_event_line
from tasklens.metrics import (
    WEEKDAY_NAMES,
    EmptyWindow,
    RetentionPoint,
    acceptance_summary,
    retention_curve,
    returning_user_cohort,
    temporal_profile,
)
from tasklens.report import report_to_dict, run_pipeline
from tasklens.synth import EditMix, edit_analysis_lines, write_log

def outcome(category, module_changed=False, lines=6, tokens=20, **verdict):
    decision = {
        Category.REJECTED: UserAction.REJECTED,
        Category.IGNORED: UserAction.IGNORED,
    }.get(category, UserAction.ACCEPTED)
    return SuggestionOutcome(
        suggestion_id="s",
        user_id="u",
        shown_task=None,
        decision=decision,
        suggestion_lines=lines,
        suggestion_tokens=tokens,
        verdict=Verdict(category, module_changed=module_changed, **verdict),
    )


def mixed_outcomes(fully=0, minor=0, minor_mc=0, major=0, deleted=0, unresolved=0,
                   rejected=0, ignored=0):
    out = []
    out += [outcome(Category.FULLY_ACCEPTED) for _ in range(fully)]
    out += [outcome(Category.MINOR_EDIT) for _ in range(minor)]
    out += [outcome(Category.MINOR_EDIT, module_changed=True) for _ in range(minor_mc)]
    out += [outcome(Category.MAJOR_EDIT) for _ in range(major)]
    out += [outcome(Category.DELETED_AFTER_ACCEPT) for _ in range(deleted)]
    out += [outcome(Category.UNRESOLVED) for _ in range(unresolved)]
    out += [outcome(Category.REJECTED) for _ in range(rejected)]
    out += [outcome(Category.IGNORED) for _ in range(ignored)]
    return out


class TestAcceptanceSummary:
    def test_headline_rates(self):
        summary = acceptance_summary(
            mixed_outcomes(fully=24811, minor=5672, minor_mc=306, major=2713,
                           deleted=7436, rejected=21161)
        )
        assert summary.total_suggestions == 62099
        assert summary.initially_accepted == 40938
        assert 100 * summary.initial_rate == pytest.approx(65.92, abs=0.01)
        assert 24811 / summary.initially_accepted == pytest.approx(0.6060, abs=0.0001)

    def test_partition_invariant(self):
        summary = acceptance_summary(
            mixed_outcomes(fully=3, minor=2, minor_mc=1, major=4, deleted=5,
                           unresolved=2, rejected=7, ignored=1)
        )
        assert (
            summary.fully_accepted + summary.minor_edits + summary.major_edits
            + summary.deleted_after_accept + summary.unresolved
        ) == summary.initially_accepted
        assert summary.minor_edits == 3  # includes the module-changed one
        assert summary.module_changed_minor == 1

    def test_zero_accepted(self):
        summary = acceptance_summary(mixed_outcomes(rejected=5))
        assert summary.initial_rate == 0.0
        assert summary.strong_rate == 0.0

    def test_empty_outcomes(self):
        summary = acceptance_summary([])
        assert summary.total_suggestions == 0
        assert summary.initial_rate == 0.0
        assert summary.avg_lines_per_suggestion == 0.0

    def test_averages(self):
        outs = [outcome(Category.FULLY_ACCEPTED, lines=5, tokens=10),
                outcome(Category.REJECTED, lines=7, tokens=30)]
        summary = acceptance_summary(outs)
        assert summary.avg_lines_per_suggestion == 6.0
        assert summary.avg_tokens_per_suggestion == 20.0


class TestAcceptanceFold:
    """The one pass of acceptance_summary against the per-section passes it
    replaced, kept here as the oracle."""

    ACCEPTED = (Category.FULLY_ACCEPTED, Category.MINOR_EDIT, Category.MAJOR_EDIT,
                Category.DELETED_AFTER_ACCEPT, Category.UNRESOLVED)
    MINOR_KEYS = ("module_changed", "value_only", "key_only", "key_and_value",
                  "option_added", "option_removed", "mixed", "unclassified")

    @classmethod
    def _oracle(cls, outcomes):
        """Every AcceptanceSummary field, each counted in its own pass."""
        total = len(outcomes)
        accepted = [o for o in outcomes if o.verdict.category in cls.ACCEPTED]
        counts = {c: sum(1 for o in accepted if o.verdict.category is c) for c in cls.ACCEPTED}
        minors = [o for o in outcomes if o.verdict.category is Category.MINOR_EDIT]
        minor_breakdown = dict.fromkeys(cls.MINOR_KEYS, 0)
        for o in minors:
            if o.verdict.module_changed:
                minor_breakdown["module_changed"] += 1
            elif o.verdict.minor_subcategory is None:
                minor_breakdown["unclassified"] += 1
            else:
                minor_breakdown[o.verdict.minor_subcategory.value] += 1
        tags = {tag.value: 0 for tag in ModuleEditTag}
        for o in outcomes:
            for tag in o.verdict.module_edit_tags:
                tags[tag.value] += 1
        module_changed_minor = sum(1 for o in minors if o.verdict.module_changed)
        strong = (len(accepted) - counts[Category.DELETED_AFTER_ACCEPT]
                  - counts[Category.MAJOR_EDIT] - module_changed_minor)
        return {
            "total_suggestions": total,
            "initially_accepted": len(accepted),
            "fully_accepted": counts[Category.FULLY_ACCEPTED],
            "minor_edits": counts[Category.MINOR_EDIT],
            "major_edits": counts[Category.MAJOR_EDIT],
            "deleted_after_accept": counts[Category.DELETED_AFTER_ACCEPT],
            "module_changed_minor": module_changed_minor,
            "unresolved": counts[Category.UNRESOLVED],
            "avg_lines_per_suggestion":
                sum(o.suggestion_lines for o in outcomes) / total if total else 0.0,
            "avg_tokens_per_suggestion":
                sum(o.suggestion_tokens for o in outcomes) / total if total else 0.0,
            "initial_rate": len(accepted) / total if total else 0.0,
            "strong_rate": strong / total if total else 0.0,
            "minor_breakdown": minor_breakdown,
            "module_edited": sum(1 for o in outcomes if o.verdict.module_edit_tags),
            "module_edit_tags": tags,
            "unparseable_documents": sum(1 for o in outcomes if o.verdict.doc_unparseable),
        }

    @staticmethod
    def _random_outcome(rng):
        return outcome(
            rng.choice(list(Category)),
            module_changed=rng.random() < 0.3,
            lines=rng.randrange(40),
            tokens=rng.randrange(200),
            minor_subcategory=rng.choice([None, *MinorSubcategory]),
            module_edit_tags=frozenset(t for t in ModuleEditTag if rng.random() < 0.3),
            doc_unparseable=rng.random() < 0.2,
        )

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        lines = edit_analysis_lines(EditMix(fully=2, minor=1, minor_module=1, major=1, deleted=1),
                                    n_users=2)
        return run_pipeline([write_log(tmp_path_factory.mktemp("fold") / "log.jsonl", lines)],
                            Config())

    def test_matches_per_section_oracle_on_random_outcomes(self, report):
        rng = random.Random(8)
        for _ in range(300):
            outcomes = [self._random_outcome(rng) for _ in range(rng.randrange(60))]
            summary = acceptance_summary(iter(outcomes))  # one pass: a generator will do
            want = self._oracle(outcomes)
            got = summary._asdict()
            assert got == want
            assert list(got["minor_breakdown"]) == list(want["minor_breakdown"])
            assert list(got["module_edit_tags"]) == list(want["module_edit_tags"])

            doc = report_to_dict(report._replace(acceptance=summary))
            counts = {k: v["count"] for k, v in doc["accepted_breakdown"].items()}
            assert counts == {
                "fully_accepted": want["fully_accepted"],
                "minor_edits": want["minor_edits"] - want["module_changed_minor"],
                "major_edits": want["major_edits"],
                "deleted_after_accept": want["deleted_after_accept"],
                "module_changed_minor": want["module_changed_minor"],
                "unresolved": want["unresolved"],
            }
            assert {k: v["count"] for k, v in doc["minor_edit_breakdown"].items()} == (
                want["minor_breakdown"]
            )
            assert doc["module_edits"]["outcomes"] == want["module_edited"]
            assert {k: v["count"] for k, v in doc["module_edits"]["tags"].items()} == (
                want["module_edit_tags"]
            )


class TestStrongAcceptanceRate:
    def test_headline_value(self):
        summary = acceptance_summary(
            mixed_outcomes(fully=24811, minor=5672, minor_mc=306, major=2713,
                           deleted=7436, rejected=21161)
        )
        rate = 100 * summary.strong_rate
        assert 49.08 <= rate <= 49.10
        # fully + minor edits (306 of the 5,978 changed the module) - module
        # changed + unresolved, over every suggestion
        assert summary.strong_rate == (24811 + 5978 - 306 + 0) / 62099
        # the same integer as accepted less deleted, major and module changed
        assert summary.strong_rate == (40938 - 7436 - 2713 - 306) / 62099

    def test_no_edits_no_deletions_equals_initial(self):
        summary = acceptance_summary(mixed_outcomes(fully=10, rejected=5))
        assert summary.strong_rate == summary.initial_rate

    def test_all_deleted_is_zero(self):
        summary = acceptance_summary(mixed_outcomes(deleted=10))
        assert summary.strong_rate == 0.0

    def test_strong_never_exceeds_initial(self):
        import random

        rng = random.Random(5)
        for _ in range(50):
            summary = acceptance_summary(
                mixed_outcomes(
                    fully=rng.randrange(20), minor=rng.randrange(20),
                    minor_mc=rng.randrange(5), major=rng.randrange(10),
                    deleted=rng.randrange(10), unresolved=rng.randrange(5),
                    rejected=rng.randrange(20), ignored=rng.randrange(5),
                )
            )
            if summary.total_suggestions == 0:
                continue
            assert summary.strong_rate <= summary.initial_rate

    def test_user_duplication_leaves_rates_unchanged(self):
        base = mixed_outcomes(fully=7, minor=3, minor_mc=1, major=2, deleted=4,
                              rejected=5, ignored=1)
        single = acceptance_summary(base)
        tripled = acceptance_summary(base * 3)
        assert tripled.initial_rate == single.initial_rate
        assert tripled.strong_rate == single.strong_rate


def timelines_from_days(user_days):
    """user_days: {user_id: [date, ...]} built via one completion per day."""
    lines = []
    for user, days in user_days.items():
        for i, day in enumerate(days):
            lines.append(
                json.dumps(
                    {"event_id": f"{user}-{i}", "user_id": user,
                     "ts": f"{day.isoformat()}T09:00:00+00:00",
                     "type": "completion", "suggestion_id": f"{user}-{i}",
                     "prompt": "p", "context": ""}
                )
            )
    events = [parse_event_line(line) for line in lines]
    # build_timelines takes events in deduplicate's order
    return build_timelines(sorted(events, key=attrgetter("user_id", "instant", "event_id")))


class TestReturningCohort:
    def test_two_active_days_returns(self):
        timelines = timelines_from_days(
            {
                "a": [date(2023, 6, 1), date(2023, 6, 3)],
                "b": [date(2023, 6, 1)],
                "c": [date(2023, 6, 2), date(2023, 6, 2)],  # same local date twice
            }
        )
        assert returning_user_cohort(timelines) == {"a"}

    def test_cohort_share(self):
        users = {f"r{i}": [date(2023, 6, 1), date(2023, 6, 2)] for i in range(37)}
        users.update({f"s{i}": [date(2023, 6, 1)] for i in range(63)})
        timelines = timelines_from_days(users)
        assert len(returning_user_cohort(timelines)) == 37


class TestRetentionCurve:
    def test_day0_always_full(self):
        timelines = timelines_from_days({"a": [date(2023, 6, 1)]})
        curve = retention_curve(timelines, 3, date(2023, 6, 30))
        assert curve.points[0].percentage == 100.0

    def test_single_user_day1_then_gone(self):
        timelines = timelines_from_days({"a": [date(2023, 6, 1), date(2023, 6, 2)]})
        curve = retention_curve(timelines, 2, date(2023, 6, 30))
        assert curve.points[1].percentage == 100.0
        assert curve.points[2].percentage == 0.0

    def test_eligibility_window(self):
        # first day 10 days before window end: ineligible for day 30
        timelines = timelines_from_days({"a": [date(2023, 6, 20)]})
        curve = retention_curve(timelines, 30, date(2023, 6, 30))
        assert curve.points[30].eligible_users == 0
        assert curve.points[10].eligible_users == 1

    def test_duplicating_users_leaves_curve_unchanged(self):
        base_days = {
            "a": [date(2023, 6, 1), date(2023, 6, 2)],
            "b": [date(2023, 6, 1)],
            "c": [date(2023, 6, 1), date(2023, 6, 4)],
        }
        tripled = {}
        for k in range(3):
            for user, days in base_days.items():
                tripled[f"{user}-{k}"] = days
        curve1 = retention_curve(timelines_from_days(base_days), 5, date(2023, 6, 30))
        curve3 = retention_curve(timelines_from_days(tripled), 5, date(2023, 6, 30))
        assert [p.percentage for p in curve1.points] == [p.percentage for p in curve3.points]

    def test_empty_window(self):
        timelines = timelines_from_days({"a": [date(2023, 6, 10)]})
        with pytest.raises(EmptyWindow):
            retention_curve(timelines, 3, date(2023, 6, 1))
        with pytest.raises(EmptyWindow):
            retention_curve([], 3, date(2023, 6, 1))

    def test_horizon_validated(self):
        timelines = timelines_from_days({"a": [date(2023, 6, 1)]})
        with pytest.raises(ValueError):
            retention_curve(timelines, 0, date(2023, 6, 30))

    @staticmethod
    def _per_day_oracle(timelines, horizon, window_end):
        """The curve counted one calendar day at a time: for each N, every
        user whose first day is on or before window_end - N is eligible and
        returned if first day + N is active."""
        first_days = {t.user_id: t.first_day for t in timelines}
        actives = {t.user_id: t.active_days for t in timelines}
        points = []
        for day in range(horizon + 1):
            cutoff = window_end - timedelta(days=day)
            eligible = [u for u, first in first_days.items() if first <= cutoff]
            returned = sum(
                1 for u in eligible if first_days[u] + timedelta(days=day) in actives[u]
            )
            pct = 100.0 * returned / len(eligible) if eligible else 0.0
            points.append(RetentionPoint(day, len(eligible), returned, pct))
        return tuple(points)

    def test_matches_per_day_oracle_on_random_timelines(self):
        rng = random.Random(3)
        start = date(2023, 6, 1)
        for _ in range(200):
            users = {
                f"u{i}": [start + timedelta(days=rng.randrange(40))
                          for _ in range(rng.randrange(1, 8))]
                for i in range(rng.randrange(1, 12))
            }
            timelines = timelines_from_days(users)
            # Often before the last active days, sometimes before a first day.
            window_end = start + timedelta(days=rng.randrange(5, 45))
            if min(t.first_day for t in timelines) > window_end:
                continue
            horizon = rng.randrange(1, 50)
            curve = retention_curve(timelines, horizon, window_end)
            assert curve.points == self._per_day_oracle(timelines, horizon, window_end)

    def test_horizon_past_the_first_representable_date(self):
        timelines = timelines_from_days({"a": [date(1, 1, 1), date(1, 1, 3)]})
        curve = retention_curve(timelines, 5, date(1, 1, 4))
        assert [(p.eligible_users, p.returned_users) for p in curve.points] == [
            (1, 1), (1, 0), (1, 1), (1, 0), (0, 0), (0, 0)
        ]


def completion_events(day_counts):
    events = []
    i = 0
    for day, count in day_counts.items():
        for _ in range(count):
            i += 1
            events.append(
                parse_event_line(
                    json.dumps(
                        {"event_id": f"e{i}", "user_id": "u",
                         "ts": f"{day.isoformat()}T10:00:00+00:00",
                         "type": "completion", "suggestion_id": f"s{i}",
                         "prompt": "p", "context": ""}
                    )
                )
            )
    return events


class TestTemporalProfile:
    def test_one_event_each_weekday(self):
        days = {date(2023, 6, 5) + timedelta(days=i): 1 for i in range(7)}  # Mon..Sun
        profile = temporal_profile(completion_events(days), (min(days), max(days)))
        assert all(mean == 1.0 for mean in profile.weekday_means.values())

    def test_only_saturdays(self):
        days = {date(2023, 6, 10): 4, date(2023, 6, 17): 2}  # both Saturdays
        profile = temporal_profile(
            completion_events(days), window=(date(2023, 6, 10), date(2023, 6, 17))
        )
        assert profile.weekday_means["Saturday"] == 3.0
        assert profile.weekday_means["Monday"] == 0.0

    def test_planted_counts_match_hand_computation(self):
        # window of two full weeks; Mondays get 5 then 11 -> mean 8
        days = {date(2023, 6, 5): 5, date(2023, 6, 12): 11, date(2023, 6, 7): 4}
        profile = temporal_profile(
            completion_events(days), window=(date(2023, 6, 5), date(2023, 6, 18))
        )
        assert profile.weekday_means["Monday"] == 8.0
        assert profile.weekday_means["Wednesday"] == 2.0  # 4 over two Wednesdays
        assert profile.daily_counts[date(2023, 6, 12)] == 11

    def test_weekend_removal_leaves_weekday_means(self):
        days = {
            date(2023, 6, 5): 3,   # Monday
            date(2023, 6, 10): 9,  # Saturday
            date(2023, 6, 11): 2,  # Sunday
        }
        window = (date(2023, 6, 5), date(2023, 6, 11))
        full = temporal_profile(completion_events(days), window=window)
        weekdays_only = temporal_profile(
            completion_events({date(2023, 6, 5): 3}), window=window
        )
        for name in ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday"):
            assert full.weekday_means[name] == weekdays_only.weekday_means[name]

    def test_non_completion_events_ignored(self):
        feedback = parse_event_line(
            json.dumps(
                {"event_id": "f", "user_id": "u", "ts": "2023-06-05T10:00:00+00:00",
                 "type": "feedback", "stars": 5, "comment": "x"}
            )
        )
        profile = temporal_profile([feedback], (date(2023, 6, 5), date(2023, 6, 5)))
        assert profile.daily_counts == {}
        assert profile.weekday_means["Monday"] == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.dates(),
        length=st.integers(-10, 60),
        offsets=st.lists(st.integers(-15, 70), max_size=20),
    )
    @example(start=date(9999, 12, 20), length=12, offsets=[11])  # ends on date.max
    @example(start=date.min, length=60, offsets=[0, 3])
    def test_weekday_counts_equal_a_day_by_day_walk(self, start, length, offsets):
        """Any window, empty and reversed ones and the ends of the date range
        included: the weekday means are those of walking the window day by day."""
        last = date.max.toordinal()

        def clamp(ordinal):
            return date.fromordinal(min(max(ordinal, 1), last))

        end = clamp(start.toordinal() + length - 1)
        counts = {}
        for offset in offsets:
            day = clamp(start.toordinal() + offset)
            counts[day] = counts.get(day, 0) + 1
        totals, days = [0] * 7, [0] * 7
        for ordinal in range(start.toordinal(), end.toordinal() + 1):
            day = date.fromordinal(ordinal)
            days[day.weekday()] += 1
            totals[day.weekday()] += counts.get(day, 0)
        walked = {
            name: totals[i] / days[i] if days[i] else 0.0 for i, name in enumerate(WEEKDAY_NAMES)
        }
        profile = temporal_profile(completion_events(counts), (start, end))
        assert profile.weekday_means == walked
        assert profile.daily_counts == {
            day: count for day, count in sorted(counts.items()) if start <= day <= end
        }
