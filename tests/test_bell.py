"""Bell-polynomial counting layer: examples frozen from brute force, plus
cross-recurrence invariants."""

from math import comb, factorial

import pytest

from colorcomp import (
    InputError,
    DomainError,
    WeightSeq,
    enum_weighted,
    hoggatt_lind_count,
    invert_transform,
    partial_bell,
    weighted_count,
    weighted_count_k,
)
from colorcomp.bell import _partitions_k, require_prefix

ONE_TWO = WeightSeq((1, 1) + (0,) * 10)


def brute_count(w, n, k=None):
    """Independent oracle: enumerate all w-color compositions directly."""
    return sum(1 for comp in enum_weighted(w, n) if k is None or len(comp) == k)


class TestWeightSeq:
    def test_one_based_indexing(self):
        w = WeightSeq((3, 1, 4))
        assert [w[1], w[2], w[3]] == [3, 1, 4]

    def test_out_of_range_is_an_error(self):
        w = WeightSeq((1, 2))
        with pytest.raises(InputError):
            w[3]
        with pytest.raises(InputError):
            w[0]

    def test_rejects_negative_and_empty(self):
        with pytest.raises(InputError):
            WeightSeq((1, -1))
        with pytest.raises(InputError):
            WeightSeq(())

    def test_polytopic_prefix(self):
        assert list(WeightSeq.polytopic(2, 4)) == [1, 3, 6, 10]
        assert list(WeightSeq.polytopic(1, 4)) == [1, 2, 3, 4]


class TestPartialBell:
    def test_single_block(self):
        x = [5, 7, 11]
        assert partial_bell(3, 1, x) == 11

    def test_all_singletons(self):
        assert partial_bell(3, 3, [1, 99]) == 1
        assert partial_bell(5, 5, [2]) == 2**5

    def test_three_two(self):
        # B_{3,2}(x1, x2) = 3 x1 x2 = 3 * 1 * 6
        assert partial_bell(3, 2, [1, 6]) == 18

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            partial_bell(3, 4, [1, 1, 1])
        with pytest.raises(DomainError):
            partial_bell(3, 0, [1, 1, 1])

    def test_short_x_is_input_error(self):
        with pytest.raises(InputError):
            partial_bell(5, 2, [1, 1])

    @pytest.mark.parametrize("n", range(1, 21))
    def test_factorial_point(self, n):
        # B_{n,k}(1!, 2!, ...) = (n!/k!) C(n-1, k-1)
        x = [factorial(j) for j in range(1, n + 1)]
        for k in range(1, n + 1):
            expected = factorial(n) // factorial(k) * comb(n - 1, k - 1)
            assert partial_bell(n, k, x) == expected


class TestWeightedCountK:
    def test_polytopic_one_part(self):
        assert weighted_count_k(WeightSeq.polytopic(2, 3), 3, 1) == 6

    def test_all_ones_diagonal(self):
        for n in range(1, 9):
            assert weighted_count_k(WeightSeq.ones(n), n, n) == 1

    def test_one_two_parts(self):
        # brute force: compositions of 5 into 3 parts of size 1 or 2 are
        # the three arrangements of 2+2+1
        assert weighted_count_k(ONE_TWO, 5, 3) == 3
        assert weighted_count_k(ONE_TWO, 5, 3) == brute_count(ONE_TWO, 5, 3)

    def test_prefix_too_short(self):
        with pytest.raises(InputError):
            weighted_count_k(WeightSeq((1, 1)), 5, 2)


class TestWeightedCount:
    def test_polytopic_total(self):
        assert weighted_count(WeightSeq.polytopic(2, 3), 3) == 13

    def test_only_unit_parts(self):
        w = WeightSeq((1, 0, 0, 0, 0, 0))
        for n in range(1, 7):
            assert weighted_count(w, n) == 1

    def test_all_ones_is_power_of_two(self):
        assert weighted_count(WeightSeq.ones(6), 6) == 32
        for n in range(1, 10):
            assert weighted_count(WeightSeq.ones(n), n) == 2 ** (n - 1)


class TestInvertTransform:
    def test_one_two_is_fibonacci(self):
        assert invert_transform(ONE_TWO, 6) == [1, 2, 3, 5, 8, 13]

    def test_unit_weights(self):
        assert invert_transform(WeightSeq((1, 0, 0, 0)), 4) == [1, 1, 1, 1]

    def test_polytopic_prefix(self):
        assert invert_transform(WeightSeq.polytopic(2, 3), 3) == [1, 4, 13]

    def test_prefix_too_short(self):
        with pytest.raises(InputError):
            invert_transform(WeightSeq((1, 1)), 3)


class TestHoggattLind:
    def test_one_two_four_two(self):
        # only the partition 2+2 contributes: (2,2) is the sole
        # 2-part composition of 4 with parts of size at most 2
        assert hoggatt_lind_count(ONE_TWO, 4, 2) == 1
        assert hoggatt_lind_count(ONE_TWO, 4, 2) == brute_count(ONE_TWO, 4, 2)

    def test_single_part_is_weight(self):
        w = WeightSeq((2, 5, 9, 4))
        for n in range(1, 5):
            assert hoggatt_lind_count(w, n, 1) == w[n]

    def test_polytopic_two_parts(self):
        assert hoggatt_lind_count(WeightSeq.polytopic(2, 3), 3, 2) == 6

    @pytest.mark.parametrize("w", [WeightSeq.ones(1200), WeightSeq.polytopic(2, 1200)], ids=["ones", "p2"])
    @pytest.mark.parametrize("k", [1199, 1200])
    def test_more_parts_than_the_recursion_limit(self, w, k):
        assert hoggatt_lind_count(w, 1200, k) == weighted_count_k(w, 1200, k)


def recursive_partitions(n, k, max_part):
    """Oracle for the list walker: the largest part descending, then the rest recursively."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for first in range(min(n - k + 1, max_part), -(-n // k) - 1, -1):
        for rest in recursive_partitions(n - first, k - 1, first):
            yield (first,) + rest


def test_partitions_are_those_of_the_recursive_walk_once_each():
    for n in range(1, 19):
        for k in range(1, n + 1):
            walked = list(_partitions_k(n, k))
            assert sorted(walked) == sorted(recursive_partitions(n, k, n)), (n, k)


WEIGHT_SUITE = [
    WeightSeq.ones(12),
    WeightSeq((1, 1) + (0,) * 10),
    WeightSeq.polytopic(1, 12),
    WeightSeq.polytopic(2, 12),
    WeightSeq.polytopic(3, 12),
]


@pytest.mark.parametrize("w", WEIGHT_SUITE, ids=["ones", "one-two", "p1", "p2", "p3"])
class TestMutualAgreement:
    def test_hoggatt_matches_bell(self, w):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert hoggatt_lind_count(w, n, k) == weighted_count_k(w, n, k)

    def test_invert_matches_total(self, w):
        series = invert_transform(w, 12)
        for n in range(1, 13):
            assert series[n - 1] == weighted_count(w, n)

    def test_enumeration_agrees(self, w):
        for n in range(1, 9):
            assert brute_count(w, n) == weighted_count(w, n)


READ_ONCE_SUITE = [
    (1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 2, 0, 1, 0, 0, 3, 0, 0, 1),
    (2, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    tuple(WeightSeq.polytopic(1, 10)),
    tuple(WeightSeq.polytopic(3, 10)),
]


def weighted_results(weights, n):
    """What every weighted routine returns at n, each on a fresh WeightSeq."""
    sweep = WeightSeq(weights)  # one object, so k > 1 continues the previous row
    return (
        weighted_count(WeightSeq(weights), n),
        [weighted_count_k(sweep, n, k) for k in range(1, n + 1)],
        invert_transform(WeightSeq(weights), n),
        [hoggatt_lind_count(WeightSeq(weights), n, k) for k in range(1, n + 1)],
        list(enum_weighted(WeightSeq(weights), min(n, 6))),
    )


@pytest.mark.parametrize("weights", READ_ONCE_SUITE, ids=["one-two", "zeros", "unit", "p1", "p3"])
def test_weighted_routines_read_the_checked_prefix_once(weights, monkeypatch):
    """Each routine reads the tuple require_prefix returns, not w[s] per weight."""
    expected = [weighted_results(weights, n) for n in (1, 5, 10)]

    def no_reads(self, index):
        raise AssertionError(f"w[{index}] read after require_prefix")

    monkeypatch.setattr(WeightSeq, "__getitem__", no_reads)
    assert [weighted_results(weights, n) for n in (1, 5, 10)] == expected


@pytest.mark.parametrize("weights", READ_ONCE_SUITE[:2] + [(7,)])
def test_require_prefix_returns_the_checked_weights(weights):
    w = WeightSeq(weights)
    for n in range(1, len(w) + 1):
        assert require_prefix(w, n) == tuple(w[s] for s in range(1, n + 1))
    with pytest.raises(InputError, match=f"weight prefix of length {len(w)} too short"):
        require_prefix(w, len(w) + 1)
