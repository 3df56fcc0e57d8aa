"""Differential tests: every fast path of the codec, the enumerators and
the weighted counts against a straightforward oracle.

The codec and enumerator oracles are the original implementations, kept
here: a fresh binomial at every step of the colex scan, ranking from a
list of one positions, and the recursive family walk.  The weighted
counts are checked against the package's own oracles, the partial Bell
table of the paper's identity and the partition sum, and the recurrences
of ``count_pd`` and ``count_family`` against the paper's binomial sums.
The per-k counts continue an ascending sweep from the previous call, so
their sweeps are run in every order against a fresh ``math.comb`` and a
fresh convolution.
"""

import re
import sys
import threading
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from colorcomp import (
    ColoredComposition,
    WeightSeq,
    count_family,
    count_pd,
    count_pd_k,
    enum_colored,
    enum_family,
    from_binary,
    hoggatt_lind_count,
    image_of_word,
    map_ge_m,
    map_ge_m_inv,
    map_mod_m,
    map_mod_m_inv,
    map_ones_m,
    map_ones_m_inv,
    rank_word,
    to_binary,
    unrank_word,
    weighted_count,
    weighted_count_k,
    word_of_image,
)
from colorcomp import closedform
from colorcomp.bell import partial_bell_table
from colorcomp.closedform import FAMILIES, KINDS, Family
from colorcomp.errors import InternalError
from colorcomp.verify import check_counts

MAPS = {
    "ones": (map_ones_m, map_ones_m_inv),
    "mod": (map_mod_m, map_mod_m_inv),
    "ge": (map_ge_m, map_ge_m_inv),
}


def oracle_unrank(m, n, d):
    remainder = m - 1
    bits = ["0"] * n
    cur = n - 1
    for j in range(d, 0, -1):
        while comb(cur, j) > remainder:
            cur -= 1
        remainder -= comb(cur, j)
        bits[n - 1 - cur] = "1"
        cur -= 1
    return "".join(bits)


def oracle_rank(word):
    n = len(word)
    positions = sorted(n - 1 - i for i, ch in enumerate(word) if ch == "1")
    return 1 + sum(comb(p, j) for j, p in enumerate(positions, start=1))


def oracle_enum_family(family, n):
    sizes = [s for s in range(1, n + 1) if family.admits(s)]

    def walk(remaining):
        for s in sizes:
            if s > remaining:
                break
            if s == remaining:
                yield (s,)
            else:
                for rest in walk(remaining - s):
                    yield (s,) + rest

    return walk(n)


@st.composite
def word_ranks(draw, n_max):
    n = draw(st.integers(1, n_max))
    d = draw(st.integers(1, n))
    m = draw(st.integers(1, comb(n, d)))
    return m, n, d


@st.composite
def colored(draw, d_max=8, size_max=30, k_max=10):
    d = draw(st.integers(1, d_max))
    k = draw(st.integers(1, k_max))
    parts = []
    for _ in range(k):
        size = draw(st.integers(1, size_max))
        parts.append((size, draw(st.integers(1, comb(size + d - 1, d)))))
    return ColoredComposition(d, tuple(parts))


@st.composite
def weight_prefixes(draw, length_max):
    """A polytopic weight prefix, or a random one with about 30% zero entries."""
    length = draw(st.integers(1, length_max))
    if draw(st.booleans()):
        return WeightSeq.polytopic(draw(st.integers(1, 4)), length)
    entry = st.tuples(st.integers(0, 9), st.integers(1, 4)).map(lambda t: t[1] * (t[0] >= 3))
    return WeightSeq(draw(st.lists(entry, min_size=length, max_size=length)))


@given(word_ranks(300))
def test_unrank_matches_comb_scan(mnd):
    m, n, d = mnd
    assert unrank_word(m, n, d) == oracle_unrank(m, n, d)


@given(word_ranks(300))
def test_rank_matches_position_sum(mnd):
    m, n, d = mnd
    word = oracle_unrank(m, n, d)
    assert rank_word(word, d) == oracle_rank(word) == m


@settings(max_examples=40)
@given(word_ranks(1500))
def test_rank_inverts_unrank_on_long_words(mnd):
    m, n, d = mnd
    word = unrank_word(m, n, d)
    assert len(word) == n and word.count("1") == d
    assert rank_word(word, d) == m


@given(colored())
def test_from_binary_inverts_to_binary(alpha):
    beta = to_binary(alpha)
    assert len(beta) == alpha.total + alpha.d * len(alpha.parts) - 1
    assert from_binary(beta, alpha.d) == alpha


def test_trusted_enum_rows_equal_validated_ones():
    d = 3
    for row in enum_colored(6, d):
        checked = ColoredComposition(d, row.parts)
        assert row == checked and hash(row) == hash(checked)


@given(st.sampled_from(KINDS), st.integers(2, 6), st.integers(1, 18))
def test_enum_family_matches_recursive_walk(kind, m, n):
    family = Family(kind, m)
    assert list(enum_family(family, n)) == list(oracle_enum_family(family, n))


@given(colored(k_max=6), st.sampled_from(KINDS))
def test_maps_are_word_level_images(alpha, kind):
    forward, inverse = MAPS[kind]
    beta = to_binary(alpha)
    image = image_of_word(kind, beta, alpha.d)
    assert forward(alpha) == image
    assert word_of_image(kind, image, alpha.d) == beta
    assert inverse(image, alpha.d) == alpha


@settings(max_examples=60)
@given(weight_prefixes(40), st.data())
def test_weighted_counts_match_bell_identity(w, data):
    n = data.draw(st.integers(1, len(w)))
    table = partial_bell_table(n, [factorial(j) * w[j] for j in range(1, n + 1)])
    counts = [weighted_count_k(w, n, k) for k in range(1, n + 1)]
    for k, count in enumerate(counts, start=1):
        assert factorial(n) * count == factorial(k) * table[(n, k)]
    assert weighted_count(w, n) == sum(counts)


@given(weight_prefixes(12), st.data())
def test_weighted_count_k_matches_partition_sum(w, data):
    n = data.draw(st.integers(1, len(w)))
    k = data.draw(st.integers(1, n))
    assert weighted_count_k(w, n, k) == hoggatt_lind_count(w, n, k)


@settings(max_examples=60)
@given(st.integers(1, 300), st.data())
def test_count_pd_matches_binomial_sum(nu, data):
    d = data.draw(st.one_of(st.integers(1, 40), st.integers(nu, 20 * nu)), label="d")
    assert count_pd(nu, d) == sum(count_pd_k(nu, d, k) for k in range(1, nu + 1))


@given(st.sampled_from(KINDS), st.integers(2, 50), st.data())
def test_count_family_matches_closed_form(kind, m, data):
    near_m = st.sampled_from((m - 1, m, m + 1))
    n = data.draw(st.one_of(near_m, st.integers(1, 400)), label="n")
    assert count_family(Family(kind, m), n) == FAMILIES[kind].count(n, m)


def test_recurrences_match_paper_sums_on_a_grid():
    for nu in range(1, 61):
        for d in range(1, 21):
            assert count_pd(nu, d) == sum(count_pd_k(nu, d, k) for k in range(1, nu + 1))
    for kind in KINDS:
        for m in range(2, 13):
            for n in range(1, 151):
                assert count_family(Family(kind, m), n) == FAMILIES[kind].count(n, m)


def pd_ds(nu):
    """d small against nu (the stepped sweep) or at least nu (fresh ``comb`` throughout)."""
    return st.one_of(st.integers(1, 40), st.integers(nu, 20 * nu))


def pd_column(nu, d):
    return [comb(nu + d * k - 1, nu - k) for k in range(1, nu + 1)]


@settings(max_examples=40)
@given(st.integers(1, 400), st.data())
def test_count_pd_k_sweeps_in_any_order_match_comb(nu, data):
    d = data.draw(pd_ds(nu), label="d")
    expected = pd_column(nu, d)
    ks = range(1, nu + 1)
    assert [count_pd_k(nu, d, k) for k in ks] == expected
    assert [count_pd_k(nu, d, k) for k in reversed(ks)][::-1] == expected
    order = data.draw(st.permutations(ks), label="order")
    assert {k: count_pd_k(nu, d, k) for k in order} == dict(zip(ks, expected))


@settings(max_examples=40)
@given(st.integers(1, 400), st.integers(1, 400), st.data())
def test_interleaved_count_pd_k_sweeps_match_comb(nu, other_nu, data):
    d, other_d = data.draw(pd_ds(nu), label="d"), data.draw(pd_ds(other_nu), label="other_d")
    got, other = [], []
    for k in range(1, max(nu, other_nu) + 1):
        if k <= nu:
            got.append(count_pd_k(nu, d, k))
        if k <= other_nu:
            other.append(count_pd_k(other_nu, other_d, k))
    assert got == pd_column(nu, d) and other == pd_column(other_nu, other_d)


@settings(max_examples=40)
@given(weight_prefixes(60), st.data())
def test_weighted_count_k_sweeps_agree(w, data):
    n = data.draw(st.integers(1, len(w)))
    ks = range(1, n + 1)
    up = [weighted_count_k(w, n, k) for k in ks]
    assert [weighted_count_k(w, n, k) for k in reversed(ks)][::-1] == up
    # Equal but distinct objects, alternated: every call rebuilds its rows.
    twins = (w, WeightSeq(tuple(w)))
    assert [weighted_count_k(twins[k % 2], n, k) for k in ks] == up
    if n <= 12:
        assert [hoggatt_lind_count(w, n, k) for k in ks] == up


def test_sweeps_in_threads_match_fresh_routes():
    """Threads sweeping different arguments at once share the one-entry records;
    each call must continue its own sweep or miss, never take another's value."""
    jobs = [(nu, d, WeightSeq.polytopic(d, 40)) for nu, d in ((60, 1), (70, 2), (80, 3), (90, 4))]
    # Same weights in other objects, and other (nu, d).
    jobs += [(nu + 5, d, WeightSeq(tuple(w))) for nu, d, w in jobs]
    expected = [(pd_column(nu, d), [weighted_count_k(w, 40, k) for k in range(1, 41)])
                for nu, d, w in jobs]
    got = [[] for _ in jobs]

    def sweep(i, nu, d, w):
        for _ in range(20):
            got[i].append(([count_pd_k(nu, d, k) for k in range(1, nu + 1)],
                           [weighted_count_k(w, 40, k) for k in range(1, 41)]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(i, *job)) for i, job in enumerate(jobs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[want] * 20 for want in expected]


def test_count_pd_k_steps_only_where_d_is_small(monkeypatch):
    """A sweep calls ``comb`` at k = 1 and wherever 2d >= nu - k, and steps elsewhere."""
    calls = []

    def counted(n, r):
        calls.append((n, r))
        return comb(n, r)

    monkeypatch.setattr(closedform, "comb", counted)
    for nu, d, fresh in ((1000, 3, [1, *range(994, 1001)]), (211, 1051, range(1, 212))):
        calls.clear()
        assert [count_pd_k(nu, d, k) for k in range(1, nu + 1)] == pd_column(nu, d)
        assert calls == [(nu + d * k - 1, nu - k) for k in fresh]


def off_by_one(index, delta):
    """The sweep step with numerator factor ``index`` moved by ``delta``."""
    step = closedform._pd_step_factors

    def factors(nu, d, k):
        num, den = step(nu, d, k)
        num = list(num)
        if index < len(num):
            num[index] += delta
        return num, den

    return factors


@pytest.mark.parametrize(
    "index, delta, where",
    [
        (0, 1, "(7, 1, 2)"),
        (0, -1, "(6, 1, 3)"),
        (1, 1, "(5, 1, 2)"),
        (1, -1, "(5, 1, 2)"),
        (2, 1, "(7, 2, 2)"),
        (2, -1, "(7, 2, 2)"),
    ],
)
def test_mutant_step_stops_check_counts(monkeypatch, index, delta, where):
    """On verify's default grid, steps run at d <= 2 with numerator factors
    K, N+1 and N+2; moving any of them makes a division inexact."""
    monkeypatch.setattr(closedform, "_pd_step_factors", off_by_one(index, delta))
    monkeypatch.setattr(closedform, "_pd_last", None)
    with pytest.raises(InternalError, match=re.escape(f"count_pd_k{where}")):
        check_counts(8, 4)


def test_exact_mutant_step_fails_bell_check(monkeypatch):
    """K+1 in place of K divides exactly at nu <= 6, d = 1: C(6, 3) = 20 becomes 25
    at (5, 1, 2), and the per-k Bell check reports it."""
    monkeypatch.setattr(closedform, "_pd_step_factors", off_by_one(0, 1))
    monkeypatch.setattr(closedform, "_pd_last", None)
    assert [count_pd_k(5, 1, k) for k in range(1, 6)] == [5, 25, 21, 8, 1]
    fourway, bell_check = check_counts(6, 1).checks
    assert not fourway.passed and not bell_check.passed
    assert (bell_check.failures, bell_check.counterexample) == (3, (5, 1, 2))
