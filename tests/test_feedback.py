import json
import random

import pytest

from tasklens.events import FeedbackEvent, parse_event_line
from tasklens.feedback import FeedbackSummary, LabelDistribution, summarize_feedback


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
        dist = summarize_feedback(events).negative_labels
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
        dist = summarize_feedback(events).positive_labels
        assert 100 * dist.shares["productivity"] == pytest.approx(42.7, abs=0.05)
        assert 100 * dist.shares["accuracy"] == pytest.approx(33.7, abs=0.05)
        assert 100 * dist.shares["ease_of_use"] == pytest.approx(19.7, abs=0.05)
        assert 100 * dist.shares["general"] == pytest.approx(3.9, abs=0.05)

    def test_single_label_is_total(self):
        events = events_from(labeled=[(1, "slow", 1)])
        assert summarize_feedback(events).negative_labels.shares == {"slow": 1.0}

    def test_unlabeled_counted_not_dropped(self):
        events = events_from(star_counts={1: 4}, labeled=[(2, "bug", 6)])
        dist = summarize_feedback(events).negative_labels
        assert dist.unlabeled == 4
        assert dist.labeled == 6

    def test_three_star_excluded_from_both(self):
        events = events_from(labeled=[(3, "meh", 5)])
        summary = summarize_feedback(events)
        assert summary.negative_labels.labeled == 0
        assert summary.positive_labels.labeled == 0

    def test_shares_sum_to_one_per_polarity(self):
        rng = random.Random(9)
        labeled = [
            (rng.choice([1, 2]), f"n{j}", rng.randrange(1, 30)) for j in range(5)
        ] + [(rng.choice([4, 5]), f"p{j}", rng.randrange(1, 30)) for j in range(4)]
        events = events_from(labeled=labeled)
        summary = summarize_feedback(events)
        for dist in (summary.negative_labels, summary.positive_labels):
            assert sum(dist.shares.values()) == pytest.approx(1.0)


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


def label_distribution(events, star_values):
    """The per-polarity pass summarize_feedback replaced: one polarity's labels."""
    counts = {}
    unlabeled = 0
    for event in events:
        if type(event) is not FeedbackEvent or event.stars not in star_values:
            continue
        label = event.sentiment_label
        if label is None:
            unlabeled += 1
        else:
            counts[label] = counts.get(label, 0) + 1
    labeled = sum(counts.values())
    shares = {label: counts[label] / labeled for label in sorted(counts)} if labeled else {}
    return LabelDistribution(
        counts={label: counts[label] for label in sorted(counts)},
        shares=shares,
        labeled=labeled,
        unlabeled=unlabeled,
    )


def per_section_oracle(events):
    """summarize_feedback as separate passes: a filtered copy, the histogram,
    then one pass per polarity."""
    feedback = [e for e in events if type(e) is FeedbackEvent]
    histogram = {stars: 0 for stars in range(1, 6)}
    for event in feedback:
        histogram[event.stars] += 1
    divisor = len(feedback) or 1
    return FeedbackSummary(
        total=len(feedback),
        star_histogram=histogram,
        satisfied_share=(histogram[4] + histogram[5]) / divisor,
        neutral_share=histogram[3] / divisor,
        dissatisfied_share=(histogram[1] + histogram[2]) / divisor,
        positive_labels=label_distribution(feedback, (4, 5)),
        negative_labels=label_distribution(feedback, (1, 2)),
    )


def other_event(i, kind):
    fields = {
        "completion": {"suggestion_id": f"s{i}", "prompt": "p", "context": ""},
        "action": {"suggestion_id": f"s{i}", "action": "accepted"},
        "content": {"document": "- debug:\n    msg: hi\n"},
    }[kind]
    return parse_event_line(json.dumps({
        "event_id": f"o{i}", "user_id": "u", "ts": "2023-06-01T10:00:00+00:00",
        "type": kind, **fields,
    }))


def test_one_pass_matches_per_section_oracle():
    # "both" labels comments of either polarity; None leaves a comment unlabeled.
    labels = [None, None, "both", "slow", "fast", "broken"]
    rng = random.Random(17)
    for case in range(300):
        events = []
        for i in range(rng.randrange(40)):
            if rng.random() < 0.3:
                events.append(other_event(i, rng.choice(["completion", "action", "content"])))
            else:
                events.append(feedback_event(i, rng.randrange(1, 6), rng.choice(labels)))
        summary = summarize_feedback(iter(events))
        want = per_section_oracle(events)
        assert summary == want, case
        # Equal dicts may differ in order, which the rendered report keeps.
        for got, expected in (
            (summary.positive_labels, want.positive_labels),
            (summary.negative_labels, want.negative_labels),
        ):
            assert list(got.counts) == list(expected.counts)
            assert list(got.shares) == list(expected.shares)
        assert list(summary.star_histogram) == [1, 2, 3, 4, 5]
