"""Explicit user feedback: star-rating histogram and label distributions.

Comments arrive pre-labeled; no text classification happens here.  Polarity
is derived from the star rating: 1-2 stars negative, 4-5 positive, 3-star
comments belong to neither distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .events import FeedbackEvent, RawEvent

POSITIVE = "positive"
NEGATIVE = "negative"

_POLARITY_STARS = {NEGATIVE: (1, 2), POSITIVE: (4, 5)}


@dataclass(frozen=True)
class LabelDistribution:
    counts: dict[str, int]
    shares: dict[str, float]
    labeled: int
    unlabeled: int


@dataclass(frozen=True)
class FeedbackSummary:
    total: int
    star_histogram: dict[int, int]
    satisfied_share: float
    neutral_share: float
    dissatisfied_share: float
    positive_labels: LabelDistribution
    negative_labels: LabelDistribution


def label_distribution(events: Iterable[RawEvent], polarity: str) -> LabelDistribution:
    """Share per label over the labeled comments of one polarity.

    Comments without a label are counted separately, never silently dropped.
    """
    try:
        star_values = _POLARITY_STARS[polarity]
    except KeyError:
        raise ValueError(f"polarity must be 'positive' or 'negative', got {polarity!r}")
    counts: dict[str, int] = {}
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
    shares = {
        label: counts[label] / labeled for label in sorted(counts)
    } if labeled else {}
    return LabelDistribution(
        counts={label: counts[label] for label in sorted(counts)},
        shares=shares,
        labeled=labeled,
        unlabeled=unlabeled,
    )


def summarize_feedback(events: Iterable[RawEvent]) -> FeedbackSummary:
    """Histogram over 1..5 stars, the satisfied/neutral/dissatisfied split and
    both polarity label distributions."""
    feedback = [e for e in events if type(e) is FeedbackEvent]
    histogram = {stars: 0 for stars in range(1, 6)}
    for event in feedback:
        histogram[event.stars] += 1
    total = len(feedback)
    divisor = total or 1  # no feedback: every count is 0, so every share is 0.0
    return FeedbackSummary(
        total=total,
        star_histogram=histogram,
        satisfied_share=(histogram[4] + histogram[5]) / divisor,
        neutral_share=histogram[3] / divisor,
        dissatisfied_share=(histogram[1] + histogram[2]) / divisor,
        positive_labels=label_distribution(feedback, POSITIVE),
        negative_labels=label_distribution(feedback, NEGATIVE),
    )
