"""Rank/unrank and the bijective maps: golden rows, round trips, error paths."""

import re
import threading
from itertools import islice, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from colorcomp import (
    ColoredComposition,
    codec,
    ColorCompError,
    DomainError,
    InputError,
    enum_colored,
    enum_family,
    enum_words,
    from_binary,
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
    word_of_image,
)
from colorcomp.closedform import FAMILIES, KINDS, AtLeastM, Family, OneModM, OnesAndM


def cc(text, d=2):
    return ColoredComposition.parse(text, d)


def colex_rank(word):
    """1 + the sum of C(p, j) over the j-th one from the right, at position p."""
    ones = [p for p, bit in enumerate(reversed(word)) if bit == "1"]
    return 1 + sum(comb(p, j) for j, p in enumerate(ones, 1))


def cut_and_rank(word, d):
    """The (size, color) parts of a codeword: cut at every (d+1)-th one from the right, rank each piece."""
    ones = [i for i in range(len(word) - 1, -1, -1) if word[i] == "1"]
    cuts = ones[d :: d + 1]
    pieces = [word[a:b] for a, b in zip([c + 1 for c in cuts] + [0], [len(word)] + cuts)]
    return tuple((len(piece) - d + 1, colex_rank(piece)) for piece in reversed(pieces))


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

    def test_every_rank_against_the_binomial_sum(self):
        """Every rank at every n <= 12 and d <= n, the ones that stop once the
        remainder is spent included: the word of n letters and d ones that
        colex_rank ranks there."""
        mismatches = [
            (m, n, d, word)
            for n in range(1, 13)
            for d in range(1, n + 1)
            for m in range(1, comb(n, d) + 1)
            if (len(word := unrank_word(m, n, d)), word.count("1"), colex_rank(word)) != (n, d, m)
        ]
        assert mismatches == []

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

    def test_exhaustive_against_the_binomial_sum(self):
        """Every word of length <= 14 at every d: the rank, or the error the word earns."""
        mismatches = []
        for n in range(15):
            for bits in product("01", repeat=n):
                word = "".join(bits)
                ones = word.count("1")
                for d in range(-1, n + 2):
                    if d < 1:
                        want = (DomainError, f"d must be >= 1, got {d}")
                    elif d != ones:
                        want = (InputError, f"word {word!r} has {ones} ones, expected {d}")
                    else:
                        want = colex_rank(word)
                    try:
                        got = rank_word(word, d)
                    except ColorCompError as exc:
                        got = (type(exc), str(exc))
                    if got != want:
                        mismatches.append((word, d, got, want))
        assert mismatches == []

    @pytest.mark.parametrize("word", ["0120", "10x1", "1 1", "١1", "11\n"])
    def test_bad_characters_after_the_count_of_ones(self, word):
        ones, shown = word.count("1"), re.escape(repr(word))
        with pytest.raises(InputError, match=f"^word {shown} has {ones} ones, expected {ones + 1}$"):
            rank_word(word, ones + 1)
        with pytest.raises(InputError, match=f"^binary word may contain only 0/1, got {shown}$"):
            rank_word(word, ones)
        # from_binary names the characters before it tries to cut the segments.
        for d in (ones, ones + 1):
            with pytest.raises(InputError, match=f"^binary word may contain only 0/1, got {shown}$"):
                from_binary(word, d)

    @settings(max_examples=60)
    @given(st.data())
    def test_round_trip_on_long_words(self, data):
        n = data.draw(st.integers(1, 3000))
        d = data.draw(st.integers(1, n))
        m = data.draw(st.integers(1, comb(n, d)))
        assert rank_word(unrank_word(m, n, d), d) == m

    # Dense runs of ones reach large j with gaps of one or two, where each
    # term is a step from the one before; sparse words keep j small against
    # the gaps, where each term is a fresh comb.
    @pytest.mark.parametrize(
        "word",
        [
            "1" * 3000 + "0" * 500,
            "0" * 40 + "110" * 900 + "0" * 100,
            "0" * 7 + "1" * 2000 + "0" * 300 + "1" * 2000 + "0",
            "1" + "0" * 900 + ("1" + "0" * 100) * 40,
            "10000000" * 30 + "0" * 5000,
        ],
        ids=["dense", "dense-gapped", "dense-two-runs", "sparse", "sparse-short-gaps"],
    )
    def test_both_kinds_of_term_against_the_binomial_sum(self, word):
        assert rank_word(word, word.count("1")) == colex_rank(word)

    def test_ten_thousand_ones_then_ten_thousand_zeros(self):
        """Ranking costs about one small step per one: well under a second here."""
        word = "1" * 10000 + "0" * 10000
        got = []
        worker = threading.Thread(target=lambda: got.append(rank_word(word, 10000)), daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert got == [comb(20000, 10000)]

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

    def test_exhaustive_against_cut_and_rank(self):
        """Every word of length <= 14 at every d: the parts, or the error the word earns."""
        mismatches = []
        for n in range(15):
            for bits in product("01", repeat=n):
                word = "".join(bits)
                ones = word.count("1")
                for d in range(-1, n + 2):
                    if d < 1:
                        want = (DomainError, f"d must be >= 1, got {d}")
                    elif (ones + 1) % (d + 1):
                        want = (InputError, f"word with {ones} ones cannot split into segments of {d} ones")
                    else:
                        want = ColoredComposition(d, cut_and_rank(word, d))
                    try:
                        got = from_binary(word, d)
                    except ColorCompError as exc:
                        got = (type(exc), str(exc))
                    if got != want:
                        mismatches.append((word, d, got, want))
        assert mismatches == []

    # Past d = 8 the later ones of a segment step from the term before.
    # Color 2 packs d - 1 ones at the right end, whose terms are 0, and one
    # more past a zero.  A part of color 1 left of another has its ones
    # right next to the separator, where the term left from the segment
    # to the right must not be stepped from.
    @settings(max_examples=80)
    @given(st.data())
    def test_round_trip_at_large_d(self, data):
        d = data.draw(st.integers(9, 60))
        k = data.draw(st.integers(2, 6))
        parts = []
        for _ in range(k):
            size = data.draw(st.integers(1, 40))
            top = comb(size + d - 1, d)
            color = data.draw(st.sampled_from((1, min(2, top), top)) | st.integers(1, top))
            parts.append((size, color))
        alpha = ColoredComposition(d, tuple(parts))
        assert from_binary(to_binary(alpha), d) == alpha

    def test_ten_thousand_ones_then_ten_thousand_zeros(self):
        """Decoding shares rank_word's steps: one part of 10 001, well under a second here."""
        word = "1" * 10000 + "0" * 10000
        got = []
        worker = threading.Thread(target=lambda: got.append(from_binary(word, 10000)), daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert got == [ColoredComposition(10000, ((10001, comb(20000, 10000)),))]

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

    @pytest.mark.parametrize(
        "kind, parts, d",
        [("ge", (3,), 2), ("mod", (1, 1), 2), ("ge", (3, 5, 4, 3), 2), ("ones", (1, 1), 1)],
    )
    def test_word_of_image_rejects_non_images(self, kind, parts, d):
        message = f"^parts summing to {sum(parts)} are not a {kind} image for d={d}$"
        with pytest.raises(InputError, match=message):
            word_of_image(kind, parts, d)

    # A part is refused, with the one message, exactly when admits refuses it.
    def test_word_of_image_refuses_exactly_the_parts_admits_refuses(self):
        mismatches = []
        for kind in KINDS:
            for m in range(2, 6):
                for part in range(-m, 3 * m + 1):
                    try:
                        word_of_image(kind, (part,), m - 1)
                        message = None
                    except InputError as exc:
                        message = str(exc)
                    refused = message == f"part {part} is not in the {kind} family for d={m - 1}"
                    if refused == Family(kind, m).admits(part):
                        mismatches.append((kind, m, part, message))
        assert mismatches == []

    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_word_of_image_accepts_exactly_the_images(self, d):
        m = d + 1
        for kind in KINDS:
            totals = {FAMILIES[kind].size(nu, m) for nu in range(1, 16)}
            for n in range(1, 16):
                for parts in enum_family(Family(kind, m), n):
                    if n in totals:
                        assert image_of_word(kind, word_of_image(kind, parts, d), d) == parts
                    else:
                        with pytest.raises(InputError, match="are not a"):
                            word_of_image(kind, parts, d)

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


@st.composite
def compositions(draw, d):
    """A colored composition at d of up to 4 parts of size up to 5."""
    size_and_color = st.integers(1, 5).flatmap(
        lambda size: st.tuples(st.just(size), st.integers(1, comb(size + d - 1, d)))
    )
    return ColoredComposition(d, tuple(draw(st.lists(size_and_color, min_size=1, max_size=4))))


class Word(str):
    """A str of another type, which the kernels' one-pass type check leaves to isinstance."""


class Index:
    """An integer-like part that is not an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def one_and_many(kind, d):
    """Each public codec function of one item, and its list kernel, at kind and d."""
    return {
        "encode": (to_binary, codec._encode),
        "decode": (lambda word: from_binary(word, d), lambda words: codec._decode(words, d)),
        "images": (
            lambda word: image_of_word(kind, word, d),
            lambda words: codec._images(kind, words, d),
        ),
        "words": (
            lambda parts: word_of_image(kind, parts, d),
            lambda images: codec._words(kind, images, d),
        ),
    }


# Items that each kernel leaves to its slow path: most are refused, some
# are of a type its one-pass checks do not read.  In a set of up to four
# ints, -6 comes before 2 (both hash to slot 2 of 8); in a set grown past
# that, 2 comes first.
FIRST_ITEMS = {
    "encode": ["11", None, 5, (2, 1)],
    "decode": [None, 5, "102", "10", "1 1", Word("0101")],
    "images": [None, 7, "102", "10", "11\n", Word("0101")],
    "words": [
        None, 5, (), [], ("3", 3), (2.0, 3), (True, 3), (2, 3), (2, 1), (1, 4), (3,), (3, 3, 5),
        [3, 3, 5], (Index(3), 3, 5), (3, 4, 4), (-6, 2),
    ],
}


def assert_as_one_by_one(one, many, items):
    """``many(items)`` is ``one`` of each item, or raises what ``one`` of the
    first item raises, with the same class and message."""
    try:
        want = one(items[0])
    except ColorCompError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            many(items)
    else:
        assert many(items) == [want, *map(one, items[1:])]


class TestListKernels:
    """Each public codec function is its list kernel called with one item."""

    @settings(max_examples=60)
    @given(st.data())
    def test_each_function_is_its_kernel_item_by_item(self, data):
        d = data.draw(st.integers(1, 4))
        kind = data.draw(st.sampled_from(KINDS))
        alphas = data.draw(st.lists(compositions(d), min_size=1, max_size=8))
        words = [to_binary(alpha) for alpha in alphas]
        items = {
            "encode": data.draw(st.lists(st.integers(1, 4).flatmap(compositions), max_size=8)),
            "decode": words,
            "images": words,
            "words": [image_of_word(kind, word, d) for word in words],
        }
        for name, (one, many) in one_and_many(kind, d).items():
            assert many(items[name]) == [one(item) for item in items[name]], name
        assert codec._decode(words, d) == alphas

    @settings(max_examples=150)
    @given(st.data())
    def test_a_list_fails_as_its_first_item(self, data):
        d = data.draw(st.integers(1, 4))
        kind = data.draw(st.sampled_from(KINDS))
        alphas = data.draw(st.lists(compositions(d), max_size=4))
        words = [to_binary(alpha) for alpha in alphas]
        rest = {
            "encode": alphas,
            "decode": words,
            "images": words,
            "words": [image_of_word(kind, word, d) for word in words],
        }
        name = data.draw(st.sampled_from(sorted(FIRST_ITEMS)))
        first = data.draw(st.sampled_from(FIRST_ITEMS[name]))
        one, many = one_and_many(kind, d)[name]
        assert_as_one_by_one(one, many, [first, *rest[name]])

    @pytest.mark.parametrize("kind, d", [("xx", 2), ("ge", 0), ("ge", 2.0), ("mod", True), ("xx", 0)])
    def test_a_bad_kind_or_d_fails_as_for_one_item(self, kind, d):
        items = {"decode": ["0101", "0011"], "images": ["0101", "0011"], "words": [(3, 4, 4), (4, 3, 4)]}
        for name, (one, many) in one_and_many(kind, d).items():
            if name in items:
                assert_as_one_by_one(one, many, items[name])

    # Where an input breaks several rules, the first check in the order the
    # public functions have always used names it.
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: from_binary(None, 0), InputError, "binary word must be a str, got None"),
            (lambda: from_binary("102", 0), DomainError, "d must be >= 1, got 0"),
            (lambda: image_of_word("xx", None, 0), DomainError, "unknown family kind 'xx'"),
            (lambda: image_of_word("ge", None, 0), InputError, "binary word must be a str, got None"),
            (lambda: image_of_word("ge", "102", 0), DomainError, "d must be >= 1, got 0"),
            (lambda: word_of_image("xx", None, 0), DomainError, "unknown family kind 'xx'"),
            (lambda: word_of_image("ge", None, 0), DomainError, "d must be >= 1, got 0"),
            (lambda: word_of_image("ge", (2.0, 2), 2), InputError, "part must be an integer, got 2.0"),
            (lambda: word_of_image("ge", (-6, 2), 2), InputError, "part -6 is not in the ge family for d=2"),
            # The kernel asks admits of the set of all parts, where 2 comes
            # before -6, but names what the first refused image would.
            (
                lambda: codec._words("ge", [(-6, 2), (3, 4, 5, 6)], 2),
                InputError,
                "part -6 is not in the ge family for d=2",
            ),
        ],
    )
    def test_the_first_check_names_the_input(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
