"""Bijective codecs between colored compositions, binary words, and
restricted compositions.

Binary words are ASCII 0/1 strings written most-significant-first; bit
positions are counted right to left starting at 0.  The rank/unrank pair
uses the combinatorial number system (colex) on m - 1: the word of rank m
has ones at the unique positions c_d > ... > c_1 >= 0 with

    m - 1 = C(c_d, d) + ... + C(c_1, 1).

On top of that sit the colored-composition <-> binary-word codec, a
stream of every colored composition of nu with its word, and the three
maps onto restricted composition families.  Each family map is a
word-level pair, ``image_of_word``/``word_of_image``, composed with the
codec; both sides read their kind's row of ``closedform.FAMILIES``.
"""

from itertools import chain, repeat
from math import comb, prod
from operator import attrgetter, index

from . import compgen
from .closedform import kind_rules
from .compgen import ColoredComposition
from .errors import InputError, InternalError, as_int, checked

__all__ = [
    "unrank_word",
    "rank_word",
    "to_binary",
    "from_binary",
    "enum_words",
    "image_of_word",
    "word_of_image",
    "map_ones_m",
    "map_ones_m_inv",
    "map_mod_m",
    "map_mod_m_inv",
    "map_ge_m",
    "map_ge_m_inv",
]


def _check_word(word):
    if not isinstance(word, str):
        raise InputError(f"binary word must be a str, got {word!r}")


def unrank_word(m, n, d):
    """The m-th (1-based) binary word of length n with exactly d ones.

    Greedy colex decoding of m - 1: for j = d down to 1 pick the largest
    c_j with C(c_j, j) <= remainder.  Requires 1 <= m <= C(n, d) and
    d <= n.
    """
    n = checked(n, "n")
    d = checked(d, "d", 1, n)
    return _unrank(checked(m, "m", 1, comb(n, d)) - 1, n, d)


def _unrank(remainder, n, d):
    """The word of unrank_word(remainder + 1, n, d), for arguments already checked.

    Scans positions p = n-1 down to 0 keeping b = C(p, j), where j is the
    number of ones still to place.  Moving to p - 1 updates b by one exact
    step, C(p-1, j) = C(p, j)(p-j)/p after a zero and C(p-1, j-1) =
    C(p, j)j/p after a one, instead of a fresh binomial per step.  Each
    division is checked by multiplying back; this costs less than a
    ``divmod`` call on the short words that dominate enumeration.  Once
    the remainder is spent, the rest of the word is written at once.
    """
    bits = []
    j = d
    b = comb(n - 1, d)
    for p in range(n - 1, -1, -1):
        if not remainder:  # the rest is the first word of its length: zeros, then j ones
            bits.append("0" * (p + 1 - j) + "1" * j)
            break
        if b > remainder:
            bits.append("0")
            numerator = b * (p - j)
        else:
            remainder -= b
            if j == 1:
                bits.append("1" + "0" * p)
                break
            bits.append("1")
            numerator = b * j
            j -= 1
        b = numerator // p
        if b * p != numerator:
            raise InternalError(f"inexact binomial update at p={p}, j={j}")
    return "".join(bits)


def rank_word(word, d):
    """1-based colex rank of a binary word with exactly d ones; inverts unrank_word."""
    _check_word(word)
    d = checked(d, "d")
    ones = word.count("1")
    if ones != d:
        raise InputError(f"word {word!r} has {ones} ones, expected {d}")
    return _segments(word, d)[0][1]


def _segments(word, d):
    """The (size, rank) of each segment of a word, right to left, d ones to a segment.

    A one that arrives when its segment already holds d ones is a
    separator; the rank of a segment is 1 + the sum of C(p, j) over its
    j-th one from the right, at position p in the segment.  The word is
    split once on '1', so a run of zeros costs no Python step.  Each term
    is a fresh ``comb(p, j)`` or one exact step from the previous term
    C(q, j-1), the one at position q < p in the same segment:

        C(p, j) = C(q, j-1) (q+1)...p / (j (q+2-j)...(p-j)),

    with p - q factors above and below.  The step wins where they are few
    against j, measured as 8(p - q) < j; the division is checked by
    multiplying back.  A term of 0 (ones at the segment's right end, p < j)
    is never stepped from, and a separator resets the term.
    """
    runs = word.split("1")
    ones = len(runs) - 1
    if ones + word.count("0") != len(word):
        raise InputError(f"binary word may contain only 0/1, got {word!r}")
    segments = []
    rank, term, q, j = 1, 0, 0, 0  # term = C(q, j) for the j-th one, at q
    p = len(runs.pop())  # the position of the next one in its segment
    for run in reversed(runs):
        if j == d:
            segments.append((p - d + 1, rank))
            rank, term, j, p = 1, 0, 0, len(run)
            continue
        j += 1
        if term and 8 * (p - q) < j:
            numerator = term * prod(range(q + 1, p + 1))
            denominator = j * prod(range(q + 2 - j, p + 1 - j))
            term = numerator // denominator
            if term * denominator != numerator:
                raise InternalError(f"inexact binomial step from q={q} to p={p}, j={j}")
        else:
            term = comb(p, j)
        rank += term
        q = p
        p += 1 + len(run)
    if j != d:
        raise InputError(f"word with {ones} ones cannot split into segments of {d} ones")
    # A segment of length s + d - 1 with d ones ranks into 1..C(s + d - 1, d).
    segments.append((p - d + 1, rank))
    return segments


def to_binary(alpha):
    """Encode a colored composition as a binary word: ``_encode`` of one row.

    Each part (size n, color c) becomes the rank-c word of length
    n + d - 1 with d ones; parts are joined by single '1' separators.
    The result has length nu + d*k - 1 and exactly (d+1)*k - 1 ones.
    """
    return _encode((alpha,))[0]


_D_AND_PARTS = attrgetter("d", "parts")


def _encode(alphas):
    """``to_binary`` of each colored composition of the sequence ``alphas``, as a list.

    One C-level pass reads every row's d and parts, and the first row
    without them raises ``to_binary``'s error.  Each distinct (size,
    color) at each d is unranked once per call.  The memo is a plain dict
    read with ``get``: a ``_part_words`` table would cost two Python calls
    per miss, which made one-row calls 1.7 times slower than unranking
    every part.
    """
    try:
        rows = list(map(_D_AND_PARTS, alphas))
    except AttributeError:
        bad = next(alpha for alpha in alphas if not (hasattr(alpha, "d") and hasattr(alpha, "parts")))
        raise InputError(f"expected a ColoredComposition, got {bad!r}") from None
    memos, words = {}, []
    for d, parts in rows:
        memo = memos.setdefault(d, {})
        words.append(
            "1".join(
                [
                    memo.get(part) or memo.setdefault(part, _unrank(part[1] - 1, part[0] + d - 1, d))
                    for part in parts
                ]
            )
        )
    return words


class _Table(dict):
    """A dict that fills a missing key with ``make(*key)``, or ``make(key)`` where
    the key is not a tuple, so it never holds more entries than it has been asked for."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(*key) if type(key) is tuple else self.make(key)
        return value


def _part_words(d):
    """A ``_Table`` of the word of each part (size, color) at one d.

    ``d`` is read at the first lookup: a stream checks it before its
    first row, so a bad d raises the stream's own error.
    """
    return _Table(lambda size, color: _unrank(color - 1, size + index(d) - 1, index(d)))


def enum_words(nu, d, k=None):
    """Yield (alpha, to_binary(alpha)) for each alpha of enum_colored(nu, d, k), in order.

    A part's word depends only on its size and color, so each is unranked
    once, the first time a row carries it, and every later row joins the
    stored words.  Each stored (size, color) begins a row of its own, so
    the table never holds more words than the stream has rows.
    """
    words = _part_words(d)
    for alpha in compgen.enum_colored(nu, d, k):
        yield alpha, "1".join([words[part] for part in alpha.parts])


def from_binary(beta, d):
    """Decode a binary word back into a colored composition; inverts to_binary.

    ``_decode`` of one word.  Segmentation cuts strictly before every
    (d+1)-th remaining one, so each segment carries exactly d ones and
    trailing zeros stay attached to their part; ``_segments`` cuts and
    ranks them in one pass.
    """
    return _decode((beta,), d)[0]


def _check_words(words):
    """Raise ``_check_word``'s error for the first item of ``words`` that is no str.

    One C-level pass where every item is exactly a str.
    """
    if set(map(type, words)) != {str}:
        for word in words:
            _check_word(word)


def _decode(words, d):
    """``from_binary(word, d)`` of each word of the sequence ``words``, as a list.

    Every word's type, then d, is checked once, in ``from_binary``'s order.
    """
    _check_words(words)
    d = checked(d, "d")
    trusted = ColoredComposition._trusted
    return [trusted(d, tuple(reversed(_segments(word, d)))) for word in words]


def image_of_word(kind, beta, d):
    """The family image of the codeword beta: a tuple of part sizes.

    ``kind`` is 'ones' (parts in {1, d+1}, summing to (d+1)nu - 1), 'mod'
    (parts = 1 mod d+1, summing to (d+1)nu) or 'ge' (parts >= d+1,
    summing to (d+1)nu + d), where beta = to_binary(alpha) for a colored
    composition alpha of nu.  ``_images`` of one word.
    """
    return _images(kind, (beta,), d)[0]


def _images(kind, words, d):
    """``image_of_word(kind, word, d)`` of each word of the sequence ``words``, as a list.

    ``kind``, every word's type and ``d`` are checked once, in that order;
    then each word's letters and its count of ones, word by word.  The
    images are one map of the kind's ``FAMILIES`` row.
    """
    image = kind_rules(kind).image
    _check_words(words)
    d = checked(d, "d")
    for beta in words:
        ones = beta.count("1")
        if ones + beta.count("0") != len(beta):
            raise InputError(f"binary word may contain only 0/1, got {beta!r}")
        if (ones + 1) % (d + 1):
            raise InputError(f"word with {ones} ones cannot split into segments of {d} ones")
    return list(map(image, words, repeat(d + 1)))


def word_of_image(kind, parts, d):
    """The codeword whose family image is ``parts``; inverts image_of_word.

    ``_words`` of one image.  Each distinct part must pass the family's
    part rule, ``admits``, at m = d + 1, before the row's ``word`` joins
    them; parts whose total is no image total for d are rejected too:
    their word is no codeword.
    """
    return _words(kind, (parts,), d)[0]


def _image_parts(parts):
    """``parts`` as a non-empty tuple of ints, or the InputError ``word_of_image`` gives it."""
    try:
        parts = tuple(parts)
    except TypeError:
        raise InputError(f"parts must be a sequence of ints, got {parts!r}") from None
    if not parts:
        raise InputError("empty composition")
    if set(map(type, parts)) != {int}:  # one C-level pass in the common all-int case
        parts = tuple(as_int(p, "part") for p in parts)
    return parts


def _words(kind, images, d):
    """``word_of_image(kind, parts, d)`` of each ``parts`` of the sequence ``images``, as a list.

    ``kind`` and ``d`` are checked once.  Where every image is a non-empty
    tuple of ints, C-level passes tell so; otherwise each image is checked
    in turn, as ``word_of_image`` checks it.  ``admits`` is asked once for
    each distinct part of the whole list; where it refuses one, the first
    image that holds a refused part is named.  Then one map of the kind's
    ``FAMILIES`` row joins the words, and each word's count of ones is
    checked, image by image.
    """
    rules = kind_rules(kind)
    d = checked(d, "d")
    m = d + 1
    if (
        set(map(type, images)) != {tuple}
        or not all(images)
        or set(map(type, chain.from_iterable(images))) != {int}
    ):
        images = list(map(_image_parts, images))
    if not all(map(rules.admits, set(chain.from_iterable(images)), repeat(m))):
        for parts in images:
            for part in set(parts):
                if not rules.admits(part, m):
                    raise InputError(f"part {part} is not in the {kind} family for d={d}")
    words = list(map(rules.word, images, repeat(m)))
    for parts, beta in zip(images, words):
        if (beta.count("1") + 1) % m:
            raise InputError(f"parts summing to {sum(parts)} are not a {kind} image for d={d}")
    return words


def map_ones_m(alpha):
    """Colored composition -> composition of (d+1)nu - 1 with parts in {1, d+1}."""
    return image_of_word("ones", to_binary(alpha), alpha.d)


def map_ones_m_inv(parts, d):
    """Inverse of map_ones_m; rejects parts outside {1, d+1}."""
    return from_binary(word_of_image("ones", parts, d), d)


def map_mod_m(alpha):
    """Colored composition -> composition of (d+1)nu with parts = 1 mod (d+1)."""
    return image_of_word("mod", to_binary(alpha), alpha.d)


def map_mod_m_inv(parts, d):
    """Inverse of map_mod_m; rejects parts not congruent to 1 mod d+1."""
    return from_binary(word_of_image("mod", parts, d), d)


def map_ge_m(alpha):
    """Colored composition -> composition of (d+1)nu + d with parts >= d+1."""
    return image_of_word("ge", to_binary(alpha), alpha.d)


def map_ge_m_inv(parts, d):
    """Inverse of map_ge_m; rejects parts smaller than d+1."""
    return from_binary(word_of_image("ge", parts, d), d)
