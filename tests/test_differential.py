"""Differential tests: every fast path of the codec, the enumerators and
the weighted counts against a straightforward oracle.

The codec and enumerator oracles are the original implementations, kept
here: a fresh binomial at every step of the colex scan, ranking from a
list of one positions, and the recursive family walk.  The weighted
counts are checked against the package's own oracles, the partial Bell
table of the paper's identity and the partition sum, and the recurrences
of ``count_pd`` and ``count_family`` against the paper's binomial sums.
"""

from math import comb, factorial

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
from colorcomp.bell import partial_bell_table
from colorcomp.closedform import FAMILIES, KINDS, Family

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
