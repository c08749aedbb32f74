import random
import sys
import time

import pytest

from tasklens import gestalt
from tasklens.gestalt import (
    MatchBudgetExceeded,
    edit_fraction,
    matching_blocks,
    similarity_ratio,
)

from gestalt_oracle import brute_blocks, brute_longest_block, brute_ratio


def blocks_as_tuples(a, b):
    return [tuple(blk) for blk in matching_blocks(a, b)]


def longest_block(a, b):
    """The oracle's first choice over the whole of both sequences: (length, a_start, b_start)."""
    return brute_longest_block(a, b, 0, len(a), 0, len(b))


class TestLongestBlock:
    def test_tie_broken_by_lowest_a_start(self):
        # "ab" and "cd" both have length 2; "ab" wins on a_start
        a, b = list("abxcd"), list("abcd")
        assert longest_block(a, b) == (2, 0, 0)
        assert matching_blocks(a, b)[0] == (0, 0, 2)
        # "ab" twice in a: the flanks of the later one would find the other
        a, b = list("abxab"), list("ab")
        assert longest_block(a, b) == (2, 0, 0)
        assert matching_blocks(a, b) == [(0, 0, 2)]

    def test_identity(self):
        a = list("abcdef")
        assert longest_block(a, a) == (6, 0, 0)
        assert matching_blocks(a, a) == [(0, 0, 6)]

    def test_disjoint_alphabets(self):
        assert longest_block(list("abc"), list("xyz")) is None
        assert matching_blocks(list("abc"), list("xyz")) == []

    def test_tie_broken_by_lowest_b_start(self):
        # block 'ab' appears twice in b; earliest b offset wins
        a, b = list("ab"), list("xabyab")
        assert longest_block(a, b) == (2, 0, 1)
        assert matching_blocks(a, b) == [(0, 1, 2)]


class TestMatchingBlocks:
    def test_two_sided_recursion(self):
        assert blocks_as_tuples(list("abxcd"), list("abcd")) == [(0, 0, 2), (3, 2, 2)]

    def test_single_element_gaps(self):
        assert blocks_as_tuples(list("abc"), list("ac")) == [(0, 0, 1), (2, 1, 1)]

    def test_identical_sequences_single_block(self):
        assert blocks_as_tuples(list("xyz"), list("xyz")) == [(0, 0, 3)]

    def test_blocks_strictly_increase_and_sum_to_matched(self):
        rng = random.Random(7)
        for _ in range(300):
            a = [rng.randrange(4) for _ in range(rng.randrange(13))]
            b = [rng.randrange(4) for _ in range(rng.randrange(13))]
            blocks = matching_blocks(a, b)
            for (a0, b0, size), (a1, b1, _) in zip(blocks, blocks[1:]):
                assert a0 + size <= a1
                assert b0 + size <= b1
            matched = sum(size for _, _, size in blocks)
            total = len(a) + len(b)
            assert similarity_ratio(a, b) == (2.0 * matched / total if total else 1.0)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(99)
        for _ in range(800):
            a = [rng.randrange(4) for _ in range(rng.randrange(13))]
            b = [rng.randrange(4) for _ in range(rng.randrange(13))]
            assert blocks_as_tuples(a, b) == brute_blocks(a, b)
            assert similarity_ratio(a, b) == brute_ratio(a, b)


    def test_matches_brute_force_oracle_on_long_repetitive_inputs(self):
        rng = random.Random(2024)
        for _ in range(600):
            alphabet = rng.randrange(1, 6)
            a = [rng.randrange(alphabet) for _ in range(rng.randrange(41))]
            if rng.random() < 0.5:
                b = [rng.randrange(alphabet) for _ in range(rng.randrange(41))]
            else:  # an edited copy of a: long blocks, many levels of flanks
                b = [x if rng.random() < 0.8 else rng.randrange(alphabet) for x in a]
                b = b[:40]
            assert blocks_as_tuples(a, b) == brute_blocks(a, b)
            assert similarity_ratio(a, b) == brute_ratio(a, b)


def alternating_edit(n):
    shown = [f"line {i}" for i in range(n)]
    return shown, [line if i % 2 else f"edited {i}" for i, line in enumerate(shown)]


def repeated_lines(n):
    return ["- x"] * n, ["- x" if i % 3 else "- y" for i in range(n)]


class TestScale:
    def test_one_block_per_edit_needs_no_recursion_depth(self):
        shown, committed = alternating_edit(600)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            ratio = similarity_ratio(shown, committed)
        finally:
            sys.setrecursionlimit(limit)
        assert ratio == 2.0 * 300 / 1200

    def test_large_alternating_edit_is_fast(self):
        shown, committed = alternating_edit(1000)
        started = time.perf_counter()
        assert edit_fraction(shown, committed) == pytest.approx(0.5)
        assert time.perf_counter() - started < 1.0

    def test_pair_past_the_budget_is_refused_fast(self):
        shown, committed = repeated_lines(2000)
        started = time.perf_counter()
        with pytest.raises(MatchBudgetExceeded):
            similarity_ratio(shown, committed)
        with pytest.raises(MatchBudgetExceeded):
            edit_fraction(shown, committed)
        with pytest.raises(ValueError):
            matching_blocks(shown, committed)
        assert time.perf_counter() - started < 1.0

    def test_budget_follows_the_documented_bound(self, monkeypatch):
        # 4 lines vs 4 lines, 2 equal pairs: (4 + 2) * (min(4, 4, 2) + 1) = 18.
        a, b = ["x", "p", "q", "r"], ["x", "x", "s", "t"]
        monkeypatch.setattr(gestalt, "MAX_MATCH_WORK", 18)
        assert similarity_ratio(a, b) == 2.0 * 1 / 8
        monkeypatch.setattr(gestalt, "MAX_MATCH_WORK", 17)
        with pytest.raises(MatchBudgetExceeded):
            similarity_ratio(a, b)

    def test_counted_path_equals_the_oracle(self, monkeypatch):
        # A budget below every cheap bound forces the equal-pair count.
        monkeypatch.setattr(gestalt, "MAX_MATCH_WORK", 200)
        rng = random.Random(5)
        for _ in range(300):
            a = [rng.randrange(8) for _ in range(rng.randrange(13))]
            b = [rng.randrange(8) for _ in range(rng.randrange(13))]
            try:
                got = blocks_as_tuples(a, b)
            except MatchBudgetExceeded:
                continue
            assert got == brute_blocks(a, b)


class TestSimilarityRatio:
    def test_hand_traced_values(self):
        a, b = list("abc"), list("ac")
        assert sum(size for _, _, size in matching_blocks(a, b)) == 2
        assert similarity_ratio(a, b) == pytest.approx(0.8)

        a, b = list("abxcd"), list("abcd")
        assert sum(size for _, _, size in matching_blocks(a, b)) == 4
        assert similarity_ratio(a, b) == pytest.approx(8 / 9)

    def test_boundary_values(self):
        assert similarity_ratio(list("abc"), list("abc")) == 1.0
        assert similarity_ratio([], list("abc")) == 0.0
        assert similarity_ratio([], []) == 1.0

    def test_ratio_one_iff_equal(self):
        rng = random.Random(11)
        for _ in range(300):
            a = [rng.randrange(3) for _ in range(rng.randrange(1, 10))]
            b = [rng.randrange(3) for _ in range(rng.randrange(1, 10))]
            ratio = similarity_ratio(a, b)
            assert 0.0 <= ratio <= 1.0
            assert (ratio == 1.0) == (a == b)

    def test_ratio_at_least_best_single_block(self):
        rng = random.Random(13)
        for _ in range(300):
            a = [rng.randrange(4) for _ in range(rng.randrange(1, 13))]
            b = [rng.randrange(4) for _ in range(rng.randrange(1, 13))]
            block = longest_block(a, b)
            if block is None:
                continue
            assert similarity_ratio(a, b) >= 2 * block[0] / (len(a) + len(b))


class TestEditFraction:
    def test_identical_is_zero(self):
        assert edit_fraction(["a"], ["a"]) == 0.0

    def test_disjoint_is_one(self):
        assert edit_fraction(list("abc"), list("xyz")) == 1.0

    def test_one_of_six_lines_replaced(self):
        shown = [f"line{i}" for i in range(6)]
        committed = list(shown)
        committed[3] = "replaced"
        assert edit_fraction(shown, committed) == pytest.approx(1 / 6)

    def test_complement_of_ratio(self):
        a, b = list("abxcd"), list("abcd")
        assert edit_fraction(a, b) == pytest.approx(1 - similarity_ratio(a, b))
