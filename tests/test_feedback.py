import json
import random

import pytest

from tasklens.events import parse_event_line
from tasklens.feedback import (
    NEGATIVE,
    POSITIVE,
    label_distribution,
    summarize_feedback,
)


def feedback_event(i, stars, label=None):
    obj = {
        "event_id": f"f{i}", "user_id": f"u{i}",
        "ts": "2023-06-01T10:00:00+00:00", "type": "feedback",
        "stars": stars, "comment": "words",
    }
    if label is not None:
        obj["label"] = label
    return parse_event_line(json.dumps(obj))


def events_from(star_counts=None, labeled=None):
    events = []
    i = 0
    for stars, count in (star_counts or {}).items():
        for _ in range(count):
            i += 1
            events.append(feedback_event(i, stars))
    for stars, label, count in labeled or []:
        for _ in range(count):
            i += 1
            events.append(feedback_event(i, stars, label))
    return events


class TestStarSummary:
    def test_published_split(self):
        events = events_from({5: 285, 4: 285, 3: 158, 2: 136, 1: 136})
        summary = summarize_feedback(events)
        assert 100 * summary.satisfied_share == pytest.approx(57.0)
        assert 100 * summary.neutral_share == pytest.approx(15.8)
        assert 100 * summary.dissatisfied_share == pytest.approx(27.2)
        assert sum(summary.star_histogram.values()) == summary.total == 1000

    def test_all_five_star(self):
        summary = summarize_feedback(events_from({5: 7}))
        assert summary.satisfied_share == 1.0
        assert summary.dissatisfied_share == 0.0

    def test_empty(self):
        summary = summarize_feedback([])
        assert summary.total == 0
        assert summary.satisfied_share == 0.0
        assert summary.star_histogram == {1: 0, 2: 0, 3: 0, 4: 0, 5: 0}

    def test_shares_sum_to_one(self):
        rng = random.Random(3)
        events = events_from({s: rng.randrange(1, 50) for s in range(1, 6)})
        summary = summarize_feedback(events)
        total = summary.satisfied_share + summary.neutral_share + summary.dissatisfied_share
        assert total == pytest.approx(1.0)

    def test_reorder_invariance(self):
        events = events_from({1: 3, 3: 2, 5: 4})
        histogram = summarize_feedback(events).star_histogram
        assert summarize_feedback(list(reversed(events))).star_histogram == histogram


class TestLabelDistribution:
    def test_planted_negative_shares(self):
        events = events_from(
            labeled=[
                (1, "cannot_get_to_work", 6649),
                (2, "poor_suggestions", 1571),
                (1, "bad_experience", 579),
                (2, "not_informative", 1204),
            ]
        )
        dist = label_distribution(events, NEGATIVE)
        assert dist.labeled == 10003
        assert 100 * dist.shares["cannot_get_to_work"] == pytest.approx(66.49, abs=0.05)
        assert 100 * dist.shares["poor_suggestions"] == pytest.approx(15.71, abs=0.05)
        assert 100 * dist.shares["bad_experience"] == pytest.approx(5.79, abs=0.05)
        assert 100 * dist.shares["not_informative"] == pytest.approx(12.04, abs=0.05)

    def test_planted_positive_shares(self):
        events = events_from(
            labeled=[
                (5, "productivity", 427),
                (4, "accuracy", 337),
                (5, "ease_of_use", 197),
                (4, "general", 39),
            ]
        )
        dist = label_distribution(events, POSITIVE)
        assert 100 * dist.shares["productivity"] == pytest.approx(42.7, abs=0.05)
        assert 100 * dist.shares["accuracy"] == pytest.approx(33.7, abs=0.05)
        assert 100 * dist.shares["ease_of_use"] == pytest.approx(19.7, abs=0.05)
        assert 100 * dist.shares["general"] == pytest.approx(3.9, abs=0.05)

    def test_single_label_is_total(self):
        events = events_from(labeled=[(1, "slow", 1)])
        assert label_distribution(events, NEGATIVE).shares == {"slow": 1.0}

    def test_unlabeled_counted_not_dropped(self):
        events = events_from(star_counts={1: 4}, labeled=[(2, "bug", 6)])
        dist = label_distribution(events, NEGATIVE)
        assert dist.unlabeled == 4
        assert dist.labeled == 6

    def test_three_star_excluded_from_both(self):
        events = events_from(labeled=[(3, "meh", 5)])
        assert label_distribution(events, NEGATIVE).labeled == 0
        assert label_distribution(events, POSITIVE).labeled == 0

    def test_polarity_validation(self):
        with pytest.raises(ValueError):
            label_distribution([], "lukewarm")

    def test_shares_sum_to_one_per_polarity(self):
        rng = random.Random(9)
        labeled = [
            (rng.choice([1, 2]), f"n{j}", rng.randrange(1, 30)) for j in range(5)
        ] + [(rng.choice([4, 5]), f"p{j}", rng.randrange(1, 30)) for j in range(4)]
        events = events_from(labeled=labeled)
        for polarity in (NEGATIVE, POSITIVE):
            shares = label_distribution(events, polarity).shares
            assert sum(shares.values()) == pytest.approx(1.0)


def test_summarize_feedback_combines_everything():
    events = events_from(
        star_counts={3: 2},
        labeled=[(1, "broken", 3), (5, "fast", 4)],
    )
    summary = summarize_feedback(events)
    assert summary.total == 9
    assert summary.negative_labels.counts == {"broken": 3}
    assert summary.positive_labels.counts == {"fast": 4}
    assert summary.neutral_share == pytest.approx(2 / 9)
