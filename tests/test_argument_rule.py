"""One range rule for every integer argument of the public API: a value out
of range raises DomainError worded "{name} must be >= {low}, got {value}"
below the range and "{name} must be in {low}..{high}, got {value}" above it."""

import re

import pytest

from colorcomp import (
    AtLeastM,
    ColoredComposition,
    DomainError,
    Family,
    OneModM,
    OnesAndM,
    WeightSeq,
    check_bijections,
    check_counts,
    check_phi,
    count_family,
    count_pd,
    count_pd_k,
    enum_colored,
    enum_family,
    enum_weighted,
    enum_words,
    from_binary,
    hoggatt_lind_count,
    image_of_word,
    invert_transform,
    map_ge_m_inv,
    map_mod_m_inv,
    map_ones_m_inv,
    num_colors,
    partial_bell,
    rank_word,
    unrank_word,
    weighted_count,
    weighted_count_k,
    word_of_image,
)
from colorcomp.bell import partial_bell_table
from colorcomp.errors import checked

W = WeightSeq((1, 1, 1))
GE = Family("ge", 2)

# (id, call, the DomainError's whole message); generators are drained.
OUT_OF_RANGE = [
    ("polytopic d", lambda: WeightSeq.polytopic(0, 3), "d must be >= 1, got 0"),
    ("partial_bell_table n", lambda: partial_bell_table(-1, [1]), "n must be >= 0, got -1"),
    ("partial_bell n", lambda: partial_bell(0, 1, [1]), "n must be >= 1, got 0"),
    ("partial_bell k low", lambda: partial_bell(3, 0, [1]), "k must be >= 1, got 0"),
    ("partial_bell k high", lambda: partial_bell(3, 4, [1]), "k must be in 1..3, got 4"),
    ("weighted_count_k n", lambda: weighted_count_k(W, 0, 1), "n must be >= 1, got 0"),
    ("weighted_count_k k low", lambda: weighted_count_k(W, 3, 0), "k must be >= 1, got 0"),
    ("weighted_count_k k high", lambda: weighted_count_k(W, 3, 4), "k must be in 1..3, got 4"),
    ("hoggatt_lind_count n", lambda: hoggatt_lind_count(W, -2, 1), "n must be >= 1, got -2"),
    ("hoggatt_lind_count k low", lambda: hoggatt_lind_count(W, 2, -1), "k must be >= 1, got -1"),
    ("hoggatt_lind_count k high", lambda: hoggatt_lind_count(W, 2, 3), "k must be in 1..2, got 3"),
    ("weighted_count n", lambda: weighted_count(W, 0), "n must be >= 1, got 0"),
    ("invert_transform n_max", lambda: invert_transform(W, 0), "n_max must be >= 1, got 0"),
    ("Family m", lambda: Family("mod", 1), "m must be >= 2, got 1"),
    ("OnesAndM m", lambda: OnesAndM(0), "m must be >= 2, got 0"),
    ("OneModM m", lambda: OneModM(1), "m must be >= 2, got 1"),
    ("AtLeastM m", lambda: AtLeastM(-1), "m must be >= 2, got -1"),
    ("num_colors size", lambda: num_colors(0, 2), "size must be >= 1, got 0"),
    ("num_colors d", lambda: num_colors(2, 0), "d must be >= 1, got 0"),
    ("count_pd_k nu", lambda: count_pd_k(0, 2, 1), "nu must be >= 1, got 0"),
    ("count_pd_k d", lambda: count_pd_k(3, 0, 1), "d must be >= 1, got 0"),
    ("count_pd_k k", lambda: count_pd_k(3, 2, 0), "k must be >= 1, got 0"),
    ("count_pd_k k high", lambda: count_pd_k(3, 2, 5), "k must be in 1..3, got 5"),
    ("count_pd nu", lambda: count_pd(0, 2), "nu must be >= 1, got 0"),
    ("count_pd d", lambda: count_pd(3, -1), "d must be >= 1, got -1"),
    ("count_family n", lambda: count_family(GE, 0), "n must be >= 1, got 0"),
    ("unrank_word n", lambda: unrank_word(1, 0, 1), "n must be >= 1, got 0"),
    ("unrank_word d low", lambda: unrank_word(1, 3, 0), "d must be >= 1, got 0"),
    ("unrank_word d high", lambda: unrank_word(1, 3, 4), "d must be in 1..3, got 4"),
    ("unrank_word m low", lambda: unrank_word(0, 4, 2), "m must be >= 1, got 0"),
    ("unrank_word m high", lambda: unrank_word(7, 4, 2), "m must be in 1..6, got 7"),
    ("rank_word d", lambda: rank_word("0", 0), "d must be >= 1, got 0"),
    ("from_binary d", lambda: from_binary("0", 0), "d must be >= 1, got 0"),
    ("image_of_word d", lambda: image_of_word("ge", "0", 0), "d must be >= 1, got 0"),
    ("word_of_image d", lambda: word_of_image("ge", (3,), 0), "d must be >= 1, got 0"),
    ("map_ones_m_inv d", lambda: map_ones_m_inv((1, 1), 0), "d must be >= 1, got 0"),
    ("map_mod_m_inv d", lambda: map_mod_m_inv((1, 1), 0), "d must be >= 1, got 0"),
    ("map_ge_m_inv d", lambda: map_ge_m_inv((3,), -4), "d must be >= 1, got -4"),
    ("ColoredComposition d", lambda: ColoredComposition(0, ((1, 1),)), "d must be >= 1, got 0"),
    ("enum_colored nu", lambda: list(enum_colored(0, 2)), "nu must be >= 1, got 0"),
    ("enum_colored d", lambda: list(enum_colored(3, 0)), "d must be >= 1, got 0"),
    ("enum_colored k low", lambda: list(enum_colored(3, 2, 0)), "k must be >= 1, got 0"),
    ("enum_colored k high", lambda: list(enum_colored(3, 2, 5)), "k must be in 1..3, got 5"),
    ("enum_words nu", lambda: list(enum_words(-1, 2)), "nu must be >= 1, got -1"),
    ("enum_words d", lambda: list(enum_words(3, 0)), "d must be >= 1, got 0"),
    ("enum_words k low", lambda: list(enum_words(3, 2, 0)), "k must be >= 1, got 0"),
    ("enum_words k high", lambda: list(enum_words(3, 2, 4)), "k must be in 1..3, got 4"),
    ("enum_family n", lambda: list(enum_family(GE, 0)), "n must be >= 1, got 0"),
    ("enum_weighted n", lambda: list(enum_weighted(W, 0)), "n must be >= 1, got 0"),
    ("check_counts nu_max", lambda: check_counts(0, 2), "nu_max must be >= 1, got 0"),
    ("check_counts d_max", lambda: check_counts(2, 0), "d_max must be >= 1, got 0"),
    ("check_phi n_max", lambda: check_phi(0, 2), "n_max must be >= 1, got 0"),
    ("check_phi d_max", lambda: check_phi(2, -1), "d_max must be >= 1, got -1"),
    ("check_bijections nu_max", lambda: check_bijections(0, 2), "nu_max must be >= 1, got 0"),
    ("check_bijections d_max", lambda: check_bijections(2, 0), "d_max must be >= 1, got 0"),
]


@pytest.mark.parametrize(
    "call, message", [row[1:] for row in OUT_OF_RANGE], ids=[row[0] for row in OUT_OF_RANGE]
)
def test_out_of_range_message(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_checked_bounds_are_inclusive():
    assert checked(1, "x") == 1
    assert checked(0, "x", 0) == 0
    assert checked(5, "x", 2, 5) == 5
    with pytest.raises(DomainError, match=r"^x must be in 2\.\.4, got 5$"):
        checked(5, "x", 2, 4)
