"""Rank/unrank and the bijective maps: golden rows, round trips, error paths."""

import re
from itertools import islice
from math import comb

import pytest
from hypothesis import given, strategies as st

from colorcomp import (
    ColoredComposition,
    ColorCompError,
    DomainError,
    InputError,
    enum_colored,
    enum_family,
    enum_words,
    from_binary,
    map_ge_m,
    map_ge_m_inv,
    map_mod_m,
    map_mod_m_inv,
    map_ones_m,
    map_ones_m_inv,
    rank_word,
    to_binary,
    unrank_word,
)
from colorcomp.closedform import AtLeastM, OneModM, OnesAndM


def cc(text, d=2):
    return ColoredComposition.parse(text, d)


class TestUnrank:
    def test_table_rows_d2(self):
        assert unrank_word(2, 3, 2) == "101"
        assert unrank_word(6, 4, 2) == "1100"
        assert [unrank_word(m, 3, 2) for m in (1, 2, 3)] == ["011", "101", "110"]

    def test_rank_one_is_trailing_ones(self):
        for n in range(1, 10):
            for d in range(1, n + 1):
                assert unrank_word(1, n, d) == "0" * (n - d) + "1" * d

    def test_number_system_example(self):
        # 23 = C(6,3) + C(3,2) + C(0,1), so rank 24 decodes to 01001001
        assert unrank_word(24, 8, 3) == "01001001"

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            unrank_word(0, 3, 2)
        with pytest.raises(DomainError):
            unrank_word(4, 3, 2)
        with pytest.raises(DomainError):
            unrank_word(1, 2, 3)


class TestRank:
    def test_table_rows(self):
        assert rank_word("110", 2) == 3
        assert rank_word("011", 2) == 1
        assert rank_word("01001001", 3) == 24

    def test_trailing_ones_rank_one(self):
        for n in range(1, 10):
            for d in range(1, n + 1):
                assert rank_word("0" * (n - d) + "1" * d, d) == 1

    def test_wrong_popcount(self):
        with pytest.raises(InputError):
            rank_word("1100", 3)

    def test_bad_characters(self):
        with pytest.raises(InputError):
            rank_word("10x1", 2)

    @given(st.data())
    def test_round_trip(self, data):
        n = data.draw(st.integers(1, 14))
        d = data.draw(st.integers(1, n))
        m = data.draw(st.integers(1, comb(n, d)))
        word = unrank_word(m, n, d)
        assert len(word) == n
        assert word.count("1") == d
        assert rank_word(word, d) == m

    def test_order_compatibility(self):
        for n in range(1, 13):
            for d in range(1, min(n, 5) + 1):
                values = [int(unrank_word(m, n, d), 2) for m in range(1, comb(n, d) + 1)]
                assert values == sorted(values)
                assert len(set(values)) == len(values)


class TestBinaryCodec:
    def test_table_rows(self):
        assert to_binary(cc("2^3,1^1")) == "110111"
        assert to_binary(cc("3^5")) == "1010"
        assert to_binary(cc("1^1,1^1,1^1")) == "11111111"

    def test_single_unit_part(self):
        for d in range(1, 6):
            assert to_binary(cc("1^1", d)) == "1" * d
            assert from_binary("1" * d, d) == cc("1^1", d)

    def test_from_binary_rows(self):
        assert from_binary("101111", 2) == cc("2^2,1^1")
        assert from_binary("11111111", 2) == cc("1^1,1^1,1^1")

    def test_malformed_words(self):
        with pytest.raises(InputError):
            from_binary("10", 2)  # 1 one; cannot split into 2-one segments
        with pytest.raises(InputError):
            from_binary("102", 2)
        with pytest.raises(InputError):
            from_binary("0", 1)  # no ones at all

    @given(st.data())
    def test_round_trip(self, data):
        d = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, 4))
        parts = []
        for _ in range(k):
            size = data.draw(st.integers(1, 5))
            color = data.draw(st.integers(1, comb(size + d - 1, d)))
            parts.append((size, color))
        alpha = ColoredComposition(d, tuple(parts))
        beta = to_binary(alpha)
        nu = alpha.total
        assert len(beta) == nu + d * k - 1
        assert beta.count("1") == (d + 1) * k - 1
        assert from_binary(beta, d) == alpha

    def test_image_is_all_words_of_right_weight(self):
        for d in (1, 2, 3):
            for nu in range(1, 6):
                for k in range(1, nu + 1):
                    words = {to_binary(a) for a in enum_colored(nu, d, k)}
                    length = nu + d * k - 1
                    ones = (d + 1) * k - 1
                    expected = comb(length, ones)
                    assert len(words) == expected


def encoded(nu, d, k=None):
    """The reference for enum_words: every row of enum_colored with to_binary of it."""
    return ((alpha, to_binary(alpha)) for alpha in enum_colored(nu, d, k))


class TestEnumWords:
    def test_equals_to_binary_on_every_row(self):
        for nu in range(1, 8):
            for d in range(1, 4):
                for k in (None, *range(1, nu + 1)):
                    assert list(enum_words(nu, d, k)) == list(encoded(nu, d, k)), (nu, d, k)

    # Past the exhaustive grid the streams run to millions of rows, so each
    # draw compares the first 2000.
    @given(st.integers(1, 12), st.integers(1, 6), st.data())
    def test_equals_to_binary_under_hypothesis(self, nu, d, data):
        k = data.draw(st.none() | st.integers(1, nu))
        assert list(islice(enum_words(nu, d, k), 2000)) == list(islice(encoded(nu, d, k), 2000))

    @pytest.mark.parametrize(
        "args",
        [
            (0, 2, None), (-1, 2, None), (True, 2, None), (2.0, 2, None),
            (3, 0, None), (3, -2, None), (3, True, None), (3, 1.5, None),
            (3, 2, 0), (3, 2, 4), (3, 2, True), (3, 2, 1.0),
        ],
    )
    def test_rejects_what_enum_colored_rejects(self, args):
        with pytest.raises(ColorCompError) as want:
            list(enum_colored(*args))
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            list(enum_words(*args))


class TestFamilyMaps:
    def test_ones_rows(self):
        assert map_ones_m(cc("3^2")) == (3, 1, 3, 1)
        assert map_ones_m(cc("1^1")) == (1, 1)
        assert map_ones_m(cc("2^1,1^1")) == (3, 1, 1, 1, 1, 1)

    def test_mod_rows(self):
        assert map_mod_m(cc("3^4")) == (1, 7, 1)
        assert map_mod_m(cc("1^1")) == (1, 1, 1)
        assert map_mod_m(cc("2^2,1^1")) == (1, 4, 1, 1, 1, 1)

    def test_ge_rows(self):
        assert map_ge_m(cc("3^1")) == (3, 3, 5)
        assert map_ge_m(cc("1^1,1^1,1^1")) == (11,)
        for d in range(1, 6):
            assert map_ge_m(cc("1^1", d)) == (2 * d + 1,)

    def test_inverse_rejects_bad_parts(self):
        with pytest.raises(InputError):
            map_ones_m_inv((1, 2), 2)
        with pytest.raises(InputError):
            map_mod_m_inv((1, 3), 2)
        with pytest.raises(InputError):
            map_ge_m_inv((2, 3), 2)
        with pytest.raises(InputError):
            map_ones_m_inv((), 2)

    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_round_trips_and_images(self, d):
        m = d + 1
        for nu in range(1, 6):
            seen_ones, seen_mod, seen_ge = set(), set(), set()
            for alpha in enum_colored(nu, d):
                a, b, c = map_ones_m(alpha), map_mod_m(alpha), map_ge_m(alpha)
                assert sum(a) == m * nu - 1 and set(a) <= {1, m}
                assert sum(b) == m * nu and all(p % m == 1 % m for p in b)
                assert sum(c) == m * nu + d and all(p >= m for p in c)
                assert map_ones_m_inv(a, d) == alpha
                assert map_mod_m_inv(b, d) == alpha
                assert map_ge_m_inv(c, d) == alpha
                seen_ones.add(a)
                seen_mod.add(b)
                seen_ge.add(c)
            assert seen_ones == set(enum_family(OnesAndM(m), m * nu - 1))
            assert seen_mod == set(enum_family(OneModM(m), m * nu))
            assert seen_ge == set(enum_family(AtLeastM(m), m * nu + d))
