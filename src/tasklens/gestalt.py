"""Gestalt sequence comparison: matching blocks, similarity ratio, edit fraction.

Ratcliff and Obershelp's gestalt matching ("Pattern Matching: The Gestalt
Approach", Dr. Dobb's Journal, 1988), as ``difflib.SequenceMatcher`` implements
it: take the longest contiguous run of equal elements shared by both
sequences, then do the same on the unmatched flanks to its left and right.
Every element is significant (no junk, no popular-element heuristic), so ties
between equal-length runs are broken by lowest start index in ``a``, then
lowest start index in ``b``.  Past ``MAX_MATCH_WORK`` a pair is refused.

The similarity ratio is 2*M/T where M is the total matched length over all
blocks and T the combined length of both sequences.  This does not yield a
minimal edit script, but it tracks human perception of "how much changed"
well, which is what the edit-fraction threshold downstream relies on.
"""

from __future__ import annotations

from collections import Counter
from difflib import Match, SequenceMatcher
from typing import Hashable, Sequence

# The most inner-loop steps one pair may take.  SequenceMatcher finds a block
# by scanning each index of its range of ``a`` and that element's positions in
# ``b``; the ranges on one level of its queue are disjoint, and there are at
# most ``blocks + 1`` levels.  With P equal-element pairs (the sum over x in a
# of count_b(x)) that is at most (len(a) + P) * (min(len(a), len(b), P) + 1)
# steps.  A step took up to 130 ns (2-vCPU x86, CPython 3.11): 1.3 s per pair.
MAX_MATCH_WORK = 10_000_000


class MatchBudgetExceeded(ValueError):
    """The pair's work bound exceeds ``MAX_MATCH_WORK``; no blocks were computed."""


def matching_blocks(a: Sequence[Hashable], b: Sequence[Hashable]) -> list[Match]:
    """All matching blocks as difflib ``Match(a, b, size)`` tuples, in ascending ``a`` order.

    Blocks are non-overlapping in both sequences and never cross over: both
    ``a`` and ``b`` increase strictly along the list.  Raises
    MatchBudgetExceeded when the pair's work bound exceeds MAX_MATCH_WORK.
    """
    n, m = len(a), len(b)
    # n*m bounds the equal pairs, so the count is needed only for large pairs.
    if (n + n * m) * (min(n, m) + 1) > MAX_MATCH_WORK:
        counts = Counter(b)
        pairs = sum(counts[x] for x in a)
        if (n + pairs) * (min(n, m, pairs) + 1) > MAX_MATCH_WORK:
            raise MatchBudgetExceeded(
                f"{n} x {m} elements with {pairs} equal pairs exceed the matching budget"
            )
    blocks = SequenceMatcher(None, a, b, autojunk=False).get_matching_blocks()
    return blocks[:-1]  # less the (n, m, 0) sentinel


def similarity_ratio(a: Sequence[Hashable], b: Sequence[Hashable]) -> float:
    """2*M/T similarity; 1.0 when both sequences are empty.

    Not guaranteed symmetric under argument swap (tie-breaking depends on
    argument order); callers should fix a convention.
    """
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2.0 * sum(blk.size for blk in matching_blocks(a, b)) / total


def edit_fraction(a: Sequence[Hashable], b: Sequence[Hashable]) -> float:
    """Fraction of the pair that does not match: 1 - similarity."""
    return 1.0 - similarity_ratio(a, b)
