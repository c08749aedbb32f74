"""Explicit user feedback: star-rating histogram and label distributions.

Comments arrive pre-labeled; no text classification happens here.  Polarity
is derived from the star rating: 1-2 stars negative, 4-5 positive, 3-star
comments belong to neither distribution.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .events import FeedbackEvent, RawEvent


class LabelDistribution(NamedTuple):
    counts: dict[str, int]
    shares: dict[str, float]
    labeled: int
    unlabeled: int


class FeedbackSummary(NamedTuple):
    total: int
    star_histogram: dict[int, int]
    satisfied_share: float
    neutral_share: float
    dissatisfied_share: float
    positive_labels: LabelDistribution
    negative_labels: LabelDistribution


def summarize_feedback(events: Iterable[RawEvent]) -> FeedbackSummary:
    """Histogram over 1..5 stars, the satisfied/neutral/dissatisfied split and
    both polarity label distributions, from one pass over the events."""
    histogram = dict.fromkeys(range(1, 6), 0)
    negative: dict[str | None, int] = {}
    positive: dict[str | None, int] = {}
    label_counts = {1: negative, 2: negative, 4: positive, 5: positive}
    for event in events:
        if type(event) is FeedbackEvent:
            histogram[event.stars] += 1
            counts = label_counts.get(event.stars)
            if counts is not None:
                label = event.sentiment_label
                counts[label] = counts.get(label, 0) + 1
    total = sum(histogram.values())
    divisor = total or 1  # no feedback: every count is 0, so every share is 0.0
    return FeedbackSummary(
        total=total,
        star_histogram=histogram,
        satisfied_share=(histogram[4] + histogram[5]) / divisor,
        neutral_share=histogram[3] / divisor,
        dissatisfied_share=(histogram[1] + histogram[2]) / divisor,
        positive_labels=_distribution(positive),
        negative_labels=_distribution(negative),
    )


def _distribution(counts: dict[str | None, int]) -> LabelDistribution:
    """Share per label over the labeled comments of one polarity.

    Comments without a label (the None key) are counted separately, never
    silently dropped.
    """
    unlabeled = counts.pop(None, 0)
    labeled = sum(counts.values())
    ordered = {label: counts[label] for label in sorted(counts)}
    return LabelDistribution(
        counts=ordered,
        shares={label: count / labeled for label, count in ordered.items()},
        labeled=labeled,
        unlabeled=unlabeled,
    )
