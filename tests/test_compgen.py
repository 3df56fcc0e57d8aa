"""Enumeration streams: canonical order, completeness, no duplicates."""

import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from colorcomp import (
    AtLeastM,
    ColoredComposition,
    DomainError,
    InputError,
    OneModM,
    OnesAndM,
    WeightSeq,
    count_family,
    count_pd,
    count_pd_k,
    enum_colored,
    enum_family,
    enum_weighted,
    num_colors,
)
from colorcomp.compgen import _blocks, _size_tuples_desc


class TestColoredComposition:
    def test_total_and_str(self):
        alpha = ColoredComposition(2, ((3, 2), (1, 1)))
        assert alpha.total == 4
        assert str(alpha) == "3^2,1^1"

    def test_parse_round_trip(self):
        alpha = ColoredComposition.parse(" 3^2 , 1^1 ", 2)
        assert alpha == ColoredComposition(2, ((3, 2), (1, 1)))

    def test_color_bound_enforced(self):
        ColoredComposition(2, ((2, 3),))  # C(3, 2) = 3 colors for size 2
        with pytest.raises(InputError):
            ColoredComposition(2, ((2, 4),))

    def test_rejects_empty_and_bad_tokens(self):
        with pytest.raises(InputError):
            ColoredComposition(2, ())
        with pytest.raises(InputError):
            ColoredComposition.parse("3-2", 2)


class TestEnumColored:
    def test_unique_maximal_parts(self):
        items = list(enum_colored(3, 2, 3))
        assert items == [ColoredComposition(2, ((1, 1), (1, 1), (1, 1)))]

    def test_thirteen_rows_in_table_order(self):
        rows = [str(a) for a in enum_colored(3, 2)]
        assert rows == [
            "3^1", "3^2", "3^3", "3^4", "3^5", "3^6",
            "2^1,1^1", "2^2,1^1", "2^3,1^1",
            "1^1,2^1", "1^1,2^2", "1^1,2^3",
            "1^1,1^1,1^1",
        ]

    def test_length_matches_closed_form(self):
        assert sum(1 for _ in enum_colored(4, 3)) == count_pd(4, 3)
        for nu in range(1, 8):
            for d in range(1, 5):
                assert sum(1 for _ in enum_colored(nu, d)) == count_pd(nu, d)
                for k in range(1, nu + 1):
                    assert (
                        sum(1 for _ in enum_colored(nu, d, k))
                        == count_pd_k(nu, d, k)
                    )

    def test_no_duplicates_and_invariants(self):
        seen = set()
        for alpha in enum_colored(6, 3):
            assert alpha not in seen
            seen.add(alpha)
            assert alpha.total == 6
            for size, color in alpha.parts:
                assert 1 <= color <= num_colors(size, 3)

    def test_bad_k(self):
        with pytest.raises(DomainError):
            list(enum_colored(3, 2, 4))

    def test_colors_in_the_order_of_their_product(self):
        for nu in range(1, 8):
            for d in range(1, 4):
                want = [
                    ColoredComposition(d, tuple(zip(sizes, colors)))
                    for k in range(1, nu + 1)
                    for sizes in _size_tuples_desc(nu, k)
                    for colors in product(*(range(1, num_colors(s, d) + 1) for s in sizes))
                ]
                assert list(enum_colored(nu, d)) == want, (nu, d)

    def test_blocks_expand_to_the_rows(self):
        """Each block runs its last part through all of its colors, as a range; its
        rows, in order, are enum_colored's."""
        for nu in range(1, 9):
            for d in range(1, 4):
                for k in (None, *range(1, nu + 1)):
                    checked_d, blocks = _blocks(nu, d, k)
                    rows = []
                    for _, head, last, colors in blocks:
                        assert colors == range(1, num_colors(last, d) + 1)
                        rows += [ColoredComposition(d, (*head, (last, c))) for c in colors]
                    assert (checked_d, rows) == (d, list(enum_colored(nu, d, k))), (nu, d, k)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_each_block_names_the_leftmost_head_part_that_moved(self, data):
        """Within a size tuple, a block's head keeps the previous head's parts left of
        ``moved`` and differs from it there; the first block of each size tuple has
        ``moved`` 0.  Expanded, the blocks are still enum_colored's rows."""
        d = data.draw(st.integers(1, 4), label="d")
        nu = data.draw(st.integers(1, 7), label="nu")
        # Every size tuple has at most 6 parts.
        k = data.draw(st.sampled_from([None] * (nu <= 6) + list(range(1, min(nu, 6) + 1))))
        _, blocks = _blocks(nu, d, k)
        rows, previous = [], None
        for moved, head, last, colors in blocks:
            sizes = (*(s for s, _ in head), last)
            if previous is None or sizes != previous[0]:
                assert moved == 0, (sizes, head)
            else:
                assert head[:moved] == previous[1][:moved], (previous[1], head, moved)
                assert head[moved] != previous[1][moved], (previous[1], head, moved)
            previous = sizes, head
            rows += [ColoredComposition(d, (*head, (last, c))) for c in colors]
        assert rows == list(enum_colored(nu, d, k)), (nu, d, k)

    def test_first_row_holds_no_color_range(self):
        """A part of size 20 at d = 8 has 2 220 075 colors; the first row needs none of them."""
        tracemalloc.start()
        try:
            first = next(enum_colored(20, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(first) == "20^1"
        assert peak < 1_000_000


def recursive_size_tuples(n, k):
    """Oracle for the list walker: the first part descending, then the rest recursively."""
    if k == 1:
        yield (n,)
        return
    for first in range(n - k + 1, 0, -1):
        for rest in recursive_size_tuples(n - first, k - 1):
            yield (first,) + rest


def test_size_tuples_match_the_recursive_walk():
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert list(_size_tuples_desc(n, k)) == list(recursive_size_tuples(n, k))


class TestEnumFamily:
    def test_ones_and_three_of_four(self):
        assert list(enum_family(OnesAndM(3), 4)) == [(1, 1, 1, 1), (1, 3), (3, 1)]

    def test_empty_stream(self):
        assert list(enum_family(AtLeastM(3), 2)) == []

    def test_thirteen_mod_rows(self):
        assert sum(1 for _ in enum_family(OneModM(3), 9)) == 13

    def test_lexicographic_order_and_validity(self):
        for family, n in [(OnesAndM(3), 10), (OneModM(4), 12), (AtLeastM(2), 9)]:
            items = list(enum_family(family, n))
            assert items == sorted(items)
            assert len(items) == len(set(items))
            for comp in items:
                assert sum(comp) == n
                assert all(family.admits(p) for p in comp)
            assert len(items) == count_family(family, n)


class TestEnumWeighted:
    def test_one_two_is_fibonacci(self):
        w = WeightSeq((1, 1, 0, 0, 0))
        assert sum(1 for _ in enum_weighted(w, 5)) == 8

    def test_unit_weights(self):
        w = WeightSeq((1, 0, 0, 0))
        for n in range(1, 5):
            assert list(enum_weighted(w, n)) == [((1, 1),) * n]

    def test_polytopic_thirteen(self):
        w = WeightSeq.polytopic(2, 3)
        items = list(enum_weighted(w, 3))
        assert len(items) == 13
        assert len(set(items)) == 13
        for comp in items:
            assert sum(s for s, _ in comp) == 3
            for size, color in comp:
                assert 1 <= color <= w[size]

    def test_short_prefix(self):
        with pytest.raises(InputError):
            list(enum_weighted(WeightSeq((1, 1)), 3))

    def test_more_parts_than_the_recursion_limit(self):
        assert next(enum_weighted(WeightSeq((1,) * 1200), 1200)) == ((1, 1),) * 1200

    @pytest.mark.parametrize(
        "weights",
        [(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), (1, 3, 6, 10, 15, 21, 28, 36, 45, 55),
         (0, 2, 0, 1, 3, 0, 0, 2, 1, 0), (2, 0, 1, 0, 0, 0, 0, 0, 0, 4)],
        ids=["polytopic-1", "polytopic-2", "zeros", "sparse"],
    )
    def test_equals_the_recursive_walk(self, weights):
        def walk(remaining):
            for s in range(1, remaining + 1):
                for c in range(1, weights[s - 1] + 1):
                    if s == remaining:
                        yield ((s, c),)
                    else:
                        for rest in walk(remaining - s):
                            yield ((s, c),) + rest

        for n in range(1, 11):
            assert list(enum_weighted(WeightSeq(weights), n)) == list(walk(n)), n
