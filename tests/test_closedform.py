"""Closed-form counts against golden values, brute force, and the Bell layer."""

import threading
import tracemalloc
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from colorcomp import (
    AtLeastM,
    DomainError,
    Family,
    OneModM,
    OnesAndM,
    WeightSeq,
    count_family,
    count_pd,
    count_pd_k,
    enum_colored,
    enum_family,
    num_colors,
    partial_bell,
    weighted_count,
)
from colorcomp.closedform import FAMILIES, KINDS


def fibonacci(n):
    """F_1 = F_2 = 1; independent oracle for the d = 1 specialization."""
    a, b = 1, 1
    for _ in range(n - 2):
        a, b = b, a + b
    return b if n >= 2 else a


def fibonacci_doubling(n):
    """(F_n, F_(n+1)) by fast doubling: F_2j = F_j (2 F_(j+1) - F_j), F_(2j+1) = F_j^2 + F_(j+1)^2."""
    if n == 0:
        return 0, 1
    a, b = fibonacci_doubling(n // 2)
    c, e = a * (2 * b - a), a * a + b * b
    return (e, c + e) if n % 2 else (c, e)


def paper_sum(nu, d):
    """The paper's total, sum_k C(nu+dk-1, nu-k), with math.comb and nothing of the library."""
    return sum(comb(nu + d * k - 1, nu - k) for k in range(1, nu + 1))


def in_thread(call, seconds=5):
    """The value of call() if it returns within the given seconds, else None."""
    got = []
    worker = threading.Thread(target=lambda: got.append(call()), daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    return got[0] if got else None


class TestFamilyType:
    def test_requires_m_at_least_two(self):
        with pytest.raises(DomainError):
            OnesAndM(1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            Family("weird", 3)

    def test_membership(self):
        assert [s for s in range(1, 9) if OnesAndM(3).admits(s)] == [1, 3]
        assert [s for s in range(1, 9) if OneModM(3).admits(s)] == [1, 4, 7]
        assert [s for s in range(1, 9) if AtLeastM(3).admits(s)] == [3, 4, 5, 6, 7, 8]


class TestCountPdK:
    def test_three_two_by_parts(self):
        assert count_pd_k(3, 2, 1) == 6
        assert count_pd_k(3, 2, 2) == 6
        assert count_pd_k(3, 2, 3) == 1

    def test_more_parts_than_total(self):
        with pytest.raises(DomainError, match=r"^k must be in 1\.\.3, got 5$"):
            count_pd_k(3, 2, 5)

    def test_all_unit_parts(self):
        for nu in range(1, 8):
            for d in range(1, 5):
                assert count_pd_k(nu, d, nu) == 1

    @pytest.mark.parametrize("d", range(1, 5))
    def test_matches_bell_polynomial(self, d):
        # (k!/nu!) B_{nu,k}(1! p_1(d), 2! p_2(d), ...) = C(nu+dk-1, nu-k)
        for nu in range(1, 21):
            x = [factorial(j) * num_colors(j, d) for j in range(1, nu + 1)]
            for k in range(1, nu + 1):
                lhs = factorial(k) * partial_bell(nu, k, x) // factorial(nu)
                assert lhs == count_pd_k(nu, d, k)


class TestCountPd:
    def test_golden_thirteen(self):
        assert count_pd(3, 2) == 13

    def test_single_unit(self):
        for d in range(1, 7):
            assert count_pd(1, d) == 1

    def test_d_one_is_even_fibonacci(self):
        assert count_pd(3, 1) == 8
        for nu in range(1, 21):
            assert count_pd(nu, 1) == fibonacci(2 * nu)

    def test_d_one_at_large_nu_is_fast_doubling_fibonacci(self):
        assert count_pd(5000, 1) == fibonacci_doubling(10000)[0]

    # Both routes and the boundary between them: running sums where d+1 < nu,
    # the sum of count_pd_k over k where d+1 >= nu.
    def test_equals_the_paper_sum_on_both_sides_of_d_plus_one_equal_nu(self):
        for nu in range(1, 61):
            for d in range(1, 71):
                assert count_pd(nu, d) == paper_sum(nu, d), (nu, d)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_the_paper_sum_under_hypothesis(self, data):
        nu = data.draw(st.integers(1, 400), label="nu")
        d = data.draw(st.integers(1, 2 * nu), label="d")
        assert count_pd(nu, d) == paper_sum(nu, d)

    # With d far past nu the work is in nu, not d: nu binomials, no d-sized list.
    def test_huge_d_at_small_nu_answers_at_once(self):
        d = 10**30
        assert in_thread(lambda: count_pd(3, d)) == (d + 2) * (d + 1) // 2 + 2 * d + 3
        assert in_thread(lambda: count_pd(1, d)) == 1

    # The definition: the invert transform of the colors C(j+d-1, d), a
    # convolution that shares no code with count_pd_k, on both sides of d+1 = nu.
    def test_equals_the_invert_transform_of_the_colors(self):
        for nu in range(1, 41):
            for d in range(1, 61):
                assert count_pd(nu, d) == weighted_count(WeightSeq.polytopic(d, nu), nu), (nu, d)

    # At d+1 = nu the total is that of compositions of nu^2 - 1 into parts 1 and nu.
    def test_on_the_boundary_at_nu_2000_within_seconds(self):
        total = in_thread(lambda: count_pd(2000, 1999), 10)
        assert total == count_family(OnesAndM(2000), 2000 * 2000 - 1)


class TestCountFamily:
    def test_golden_thirteens(self):
        assert count_family(OnesAndM(3), 8) == 13
        assert count_family(OneModM(3), 9) == 13
        assert count_family(AtLeastM(3), 11) == 13

    def test_empty_family(self):
        assert count_family(AtLeastM(3), 2) == 0
        assert count_family(AtLeastM(5), 4) == 0

    def test_small_n_below_m(self):
        # formulas remain valid below the usual n >= m threshold
        assert count_family(OnesAndM(4), 2) == 1
        assert count_family(OneModM(4), 3) == 1

    # A count at n below m is 1 or 0 whatever m is, so no m-slot window is built.
    @pytest.mark.parametrize("family", [OnesAndM(10**7), OneModM(10**7)])
    def test_small_n_far_below_m_allocates_nothing_of_size_m(self, family):
        tracemalloc.start()
        try:
            value = count_family(family, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 1 and peak < 1e6

    @pytest.mark.parametrize("m", range(2, 7))
    def test_matches_enumeration(self, m):
        for kind in ("ones", "mod", "ge"):
            family = Family(kind, m)
            for n in range(1, 16):
                assert count_family(family, n) == sum(1 for _ in enum_family(family, n))


class TestFourWayIdentity:
    @pytest.mark.parametrize("d", range(1, 6))
    def test_identity(self, d):
        m = d + 1
        for nu in range(1, 13):
            p = count_pd(nu, d)
            assert p == count_family(OnesAndM(m), m * nu - 1)
            assert p == count_family(OneModM(m), m * nu)
            assert p == count_family(AtLeastM(m), m * nu + d)

    def test_against_colored_enumeration(self):
        for d in range(1, 4):
            for nu in range(1, 7):
                assert count_pd(nu, d) == sum(1 for _ in enum_colored(nu, d))


# Each family's cut letter splits a codeword into two whose images are
# concatenated, and joins the words of two images; ``list colored --map-to``
# builds its images on this instead of calling image_of_word per row.
class TestCutLetter:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(KINDS),
        st.integers(2, 8),
        st.text(alphabet="01", max_size=30),
        st.text(alphabet="01", max_size=30),
    )
    def test_image_of_a_cut_word_is_the_images_joined(self, kind, m, x, y):
        rules = FAMILIES[kind]
        assert rules.image(x + rules.cut + y, m) == rules.image(x, m) + rules.image(y, m)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(2, 8), st.data())
    def test_word_of_joined_images_is_the_words_cut(self, kind, m, data):
        rules = FAMILIES[kind]
        admitted = st.sampled_from([part for part in range(1, 6 * m + 1) if rules.admits(part, m)])
        p = tuple(data.draw(st.lists(admitted, min_size=1, max_size=8), label="p"))
        q = tuple(data.draw(st.lists(admitted, min_size=1, max_size=8), label="q"))
        assert rules.word(p + q, m) == rules.word(p, m) + rules.cut + rules.word(q, m)

    def test_the_cut_letters(self):
        assert {kind: FAMILIES[kind].cut for kind in KINDS} == {"ones": "", "mod": "1", "ge": "0"}
