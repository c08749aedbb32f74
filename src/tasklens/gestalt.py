"""Gestalt sequence comparison: matching blocks, similarity ratio, edit fraction.

The matcher repeatedly extracts the longest contiguous run of equal elements
shared by both sequences and recurses on the unmatched flanks to its left and
right.  Every element is significant (no junk filtering), so results are fully
deterministic: ties between equal-length runs are broken by lowest start index
in ``a``, then lowest start index in ``b``.

The similarity ratio is 2*M/T where M is the total matched length over all
blocks and T the combined length of both sequences.  This does not yield a
minimal edit script, but it tracks human perception of "how much changed"
well, which is what the edit-fraction threshold downstream relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence


@dataclass(frozen=True, slots=True)
class MatchingBlock:
    """A contiguous run of ``length`` equal elements at ``a_start``/``b_start``."""

    a_start: int
    b_start: int
    length: int


@dataclass(frozen=True, slots=True)
class SimilarityRatio:
    value: float
    matched_total: int
    combined_length: int


def find_longest_match(
    a: Sequence[Hashable],
    b: Sequence[Hashable],
    a_range: tuple[int, int] | None = None,
    b_range: tuple[int, int] | None = None,
) -> MatchingBlock | None:
    """Longest contiguous matching block of a[alo:ahi] vs b[blo:bhi].

    Returns None when the ranges share no element.  Among equal-length
    candidates the block with the lowest a_start wins, then lowest b_start.
    """
    alo, ahi = a_range if a_range is not None else (0, len(a))
    blo, bhi = b_range if b_range is not None else (0, len(b))
    if not (0 <= alo <= ahi <= len(a) and 0 <= blo <= bhi <= len(b)):
        raise IndexError("range out of bounds")

    best_a, best_b, best_len = 0, 0, 0
    # runs[j] = length of the common run ending at (i, j); scanning i then j
    # ascending means a longer run is always seen first at its lowest a_start,
    # and within one row at its lowest b_start, so strict '>' encodes the
    # tie-break for free.
    runs: dict[int, int] = {}
    for i in range(alo, ahi):
        new_runs: dict[int, int] = {}
        ai = a[i]
        for j in range(blo, bhi):
            if ai == b[j]:
                k = new_runs[j] = runs.get(j - 1, 0) + 1
                if k > best_len:
                    best_a, best_b, best_len = i - k + 1, j - k + 1, k
        runs = new_runs

    if best_len == 0:
        return None
    return MatchingBlock(best_a, best_b, best_len)


def matching_blocks(a: Sequence[Hashable], b: Sequence[Hashable]) -> list[MatchingBlock]:
    """All matching blocks, in ascending a_start order.

    Blocks are non-overlapping in both sequences and are produced by recursing
    on both sides of each longest match, so cross-overs never occur: both
    a_start and b_start increase strictly along the list.
    """
    out: list[MatchingBlock] = []
    _recurse(a, b, 0, len(a), 0, len(b), out)
    return out


def _recurse(a, b, alo, ahi, blo, bhi, out: list[MatchingBlock]) -> None:
    if alo >= ahi or blo >= bhi:
        return
    block = find_longest_match(a, b, (alo, ahi), (blo, bhi))
    if block is None:
        return
    _recurse(a, b, alo, block.a_start, blo, block.b_start, out)
    out.append(block)
    _recurse(a, b, block.a_start + block.length, ahi, block.b_start + block.length, bhi, out)


def similarity_ratio(a: Sequence[Hashable], b: Sequence[Hashable]) -> SimilarityRatio:
    """2*M/T similarity; 1.0 when both sequences are empty.

    Not guaranteed symmetric under argument swap (tie-breaking depends on
    argument order); callers should fix a convention.
    """
    matched = sum(blk.length for blk in matching_blocks(a, b))
    total = len(a) + len(b)
    if total == 0:
        return SimilarityRatio(1.0, 0, 0)
    return SimilarityRatio(2.0 * matched / total, matched, total)


def edit_fraction(a: Sequence[Hashable], b: Sequence[Hashable]) -> float:
    """Fraction of the pair that does not match: 1 - similarity."""
    return 1.0 - similarity_ratio(a, b).value
