"""Integer arguments at the API boundary: bools and non-integers are
rejected with a package error, never truncated or let through as a bare
TypeError."""

import pytest

from colorcomp import (
    ColoredComposition,
    ColorCompError,
    WeightSeq,
    check_bijections,
    check_counts,
    check_phi,
    count_pd,
    count_pd_k,
    enum_family,
    enum_weighted,
    from_binary,
    hoggatt_lind_count,
    image_of_word,
    invert_transform,
    map_ge_m,
    map_ge_m_inv,
    map_mod_m_inv,
    map_ones_m_inv,
    partial_bell,
    rank_word,
    to_binary,
    unrank_word,
    weighted_count,
    weighted_count_k,
    word_of_image,
)
from colorcomp.closedform import KINDS, AtLeastM, Family, OneModM, OnesAndM, count_family
from colorcomp.errors import InputError, as_int

W = WeightSeq((1, 1, 1))


class Index:
    """An integer-like object that is not an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


REJECTED = [
    ("fractional size", lambda: ColoredComposition(2, ((1.7, 1),))),
    ("float color", lambda: ColoredComposition(2, ((1, 1.0),))),
    ("bool d", lambda: ColoredComposition(True, ((1, 1),))),
    ("bool nu", lambda: count_pd(True, 2)),
    ("float nu", lambda: count_pd(3.0, 2)),
    ("float k", lambda: count_pd_k(3, 2, 1.5)),
    ("float d in rank", lambda: rank_word("0011", 2.0)),
    ("float d in unrank", lambda: unrank_word(1, 3, 2.5)),
    ("float m in unrank", lambda: unrank_word(1.0, 3, 2)),
    ("float d in decode", lambda: from_binary("0011", 2.0)),
    ("bool d in inverse", lambda: map_ones_m_inv((1, 1), True)),
    ("float part", lambda: map_mod_m_inv((4.0, 1), 2)),
    ("bool part", lambda: map_ge_m_inv((True, 3), 2)),
    ("string part", lambda: word_of_image("ge", ("3", 3), 2)),
    ("float n in weighted count", lambda: weighted_count(W, 2.0)),
    ("bool n in weighted count", lambda: weighted_count(W, True)),
    ("float k in weighted count", lambda: weighted_count_k(W, 3, 2.0)),
    ("float n in invert", lambda: invert_transform(W, 2.0)),
    ("float n in partition sum", lambda: hoggatt_lind_count(W, 3.0, 2)),
    ("float n in Bell", lambda: partial_bell(3.0, 2, [1, 1])),
    ("bool n in enum_weighted", lambda: enum_weighted(W, True)),
    ("fractional weight", lambda: WeightSeq((1.7, 2))),
    ("float d in polytopic", lambda: WeightSeq.polytopic(2.0, 3)),
    ("fractional family m", lambda: Family("ge", 2.5)),
    ("float n in count_family", lambda: count_family(Family("ge", 2), 3.0)),
    ("one-element part", lambda: ColoredComposition(2, ((1,),))),
    ("int part", lambda: ColoredComposition(2, (5,))),
    ("int parts", lambda: ColoredComposition(2, 5)),
    ("None word in rank", lambda: rank_word(None, 2)),
    ("None word in decode", lambda: from_binary(None, 2)),
    ("None word in image", lambda: image_of_word("ge", None, 2)),
    ("None image", lambda: word_of_image("ge", None, 2)),
    ("list weights in weighted count", lambda: weighted_count([1, 2, 3], 1)),
    ("list weights in weighted count k", lambda: weighted_count_k([1, 2, 3], 2, 1)),
    ("list weights in invert", lambda: invert_transform([1, 2, 3], 2)),
    ("list weights in partition sum", lambda: hoggatt_lind_count([1, 2, 3], 2, 1)),
    ("list weights in enum_weighted", lambda: enum_weighted([1, 2, 3], 1)),
    ("float weight index", lambda: W[2.0]),
    ("string weight index", lambda: W["a"]),
    ("bool weight index", lambda: W[True]),
    ("string in to_binary", lambda: to_binary("11")),
    ("string in map", lambda: map_ge_m("1^1")),
    ("kind string in count_family", lambda: count_family("ge", 5)),
    ("kind string in enum_family", lambda: enum_family("ge", 5)),
    ("float part in admits", lambda: OnesAndM(3).admits(1.0)),
    ("fractional part in admits", lambda: AtLeastM(3).admits(3.5)),
    ("bool part in admits", lambda: OneModM(3).admits(True)),
    ("string part in admits", lambda: AtLeastM(3).admits("3")),
    ("float nu_max in check_counts", lambda: check_counts(2.0, 2)),
    ("bool d_max in check_phi", lambda: check_phi(3, True)),
    ("string phi_n_max in check_bijections", lambda: check_bijections(2, 2, "4")),
]


@pytest.mark.parametrize("call", [c for _, c in REJECTED], ids=[n for n, _ in REJECTED])
def test_rejected_with_package_error(call):
    with pytest.raises(ColorCompError):
        call()


def test_admits_no_nonpositive_part():
    assert not OneModM(3).admits(-2) and not OneModM(3).admits(-5)
    for kind in KINDS:
        for m in (2, 3, 5):
            assert not any(Family(kind, m).admits(part) for part in range(-2 * m, 1))
    assert OneModM(3).admits(Index(4)) and not AtLeastM(3).admits(Index(2))


def test_as_int():
    assert as_int(5, "x") == 5
    assert as_int(Index(7), "x") == 7
    for bad in (True, 2.0, 2.5, "2", None):
        with pytest.raises(InputError, match="x must be an integer"):
            as_int(bad, "x")


def test_integer_like_values_are_accepted():
    assert count_pd(Index(3), Index(2)) == 13
    assert unrank_word(Index(2), 3, 2) == "101"
    assert ColoredComposition(Index(2), ((Index(3), Index(2)),)).parts == ((3, 2),)
    assert map_ge_m_inv((Index(3), 3, 5), 2) == ColoredComposition.parse("3^1", 2)
    assert weighted_count(WeightSeq((Index(1), 1, 1)), Index(3)) == 4
    assert WeightSeq((1, 2))[Index(2)] == 2
