import random

import pytest

from tasklens.gestalt import (
    MatchingBlock,
    edit_fraction,
    find_longest_match,
    matching_blocks,
    similarity_ratio,
)

from gestalt_oracle import brute_blocks, brute_ratio


def blocks_as_tuples(a, b):
    return [(blk.a_start, blk.b_start, blk.length) for blk in matching_blocks(a, b)]


class TestFindLongestMatch:
    def test_tie_broken_by_lowest_a_start(self):
        # "ab" and "cd" both have length 2; "ab" wins on a_start
        block = find_longest_match(list("abxcd"), list("abcd"))
        assert block == MatchingBlock(0, 0, 2)

    def test_identity(self):
        a = list("abcdef")
        assert find_longest_match(a, a) == MatchingBlock(0, 0, 6)

    def test_disjoint_alphabets(self):
        assert find_longest_match(list("abc"), list("xyz")) is None

    def test_subranges(self):
        a = list("abxcd")
        b = list("abcd")
        assert find_longest_match(a, b, (2, 5), (2, 4)) == MatchingBlock(3, 2, 2)

    def test_tie_broken_by_lowest_b_start(self):
        # block 'ab' appears twice in b; earliest b offset wins
        block = find_longest_match(list("ab"), list("xabyab"))
        assert block == MatchingBlock(0, 1, 2)

    def test_range_bounds_checked(self):
        with pytest.raises(IndexError):
            find_longest_match(list("ab"), list("ab"), (0, 3), (0, 2))


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
            for earlier, later in zip(blocks, blocks[1:]):
                assert earlier.a_start + earlier.length <= later.a_start
                assert earlier.b_start + earlier.length <= later.b_start
            ratio = similarity_ratio(a, b)
            assert ratio.matched_total == sum(blk.length for blk in blocks)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(99)
        for _ in range(800):
            a = [rng.randrange(4) for _ in range(rng.randrange(13))]
            b = [rng.randrange(4) for _ in range(rng.randrange(13))]
            assert blocks_as_tuples(a, b) == brute_blocks(a, b)
            assert similarity_ratio(a, b).value == brute_ratio(a, b)


class TestSimilarityRatio:
    def test_hand_traced_values(self):
        r = similarity_ratio(list("abc"), list("ac"))
        assert (r.matched_total, r.combined_length) == (2, 5)
        assert r.value == pytest.approx(0.8)

        r = similarity_ratio(list("abxcd"), list("abcd"))
        assert (r.matched_total, r.combined_length) == (4, 9)
        assert r.value == pytest.approx(8 / 9)

    def test_boundary_values(self):
        assert similarity_ratio(list("abc"), list("abc")).value == 1.0
        assert similarity_ratio([], list("abc")).value == 0.0
        assert similarity_ratio([], []).value == 1.0

    def test_ratio_one_iff_equal(self):
        rng = random.Random(11)
        for _ in range(300):
            a = [rng.randrange(3) for _ in range(rng.randrange(1, 10))]
            b = [rng.randrange(3) for _ in range(rng.randrange(1, 10))]
            ratio = similarity_ratio(a, b).value
            assert 0.0 <= ratio <= 1.0
            assert (ratio == 1.0) == (a == b)

    def test_ratio_at_least_best_single_block(self):
        rng = random.Random(13)
        for _ in range(300):
            a = [rng.randrange(4) for _ in range(rng.randrange(1, 13))]
            b = [rng.randrange(4) for _ in range(rng.randrange(1, 13))]
            block = find_longest_match(a, b)
            if block is None:
                continue
            assert similarity_ratio(a, b).value >= 2 * block.length / (len(a) + len(b))


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
        assert edit_fraction(a, b) == pytest.approx(1 - similarity_ratio(a, b).value)
