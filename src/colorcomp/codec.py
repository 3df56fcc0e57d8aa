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

from __future__ import annotations

from math import comb
from operator import index

from . import compgen
from .closedform import kind_rules
from .compgen import ColoredComposition
from .errors import DomainError, InputError, InternalError, as_int

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


def _check_d(d):
    d = as_int(d, "d")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    return d


def _check_word(word):
    if not isinstance(word, str):
        raise InputError(f"binary word must be a str, got {word!r}")


def unrank_word(m, n, d):
    """The m-th (1-based) binary word of length n with exactly d ones.

    Greedy colex decoding of m - 1: for j = d down to 1 pick the largest
    c_j with C(c_j, j) <= remainder.  Requires 1 <= m <= C(n, d) and
    d <= n.
    """
    m, n, d = as_int(m, "m"), as_int(n, "n"), as_int(d, "d")
    if d < 1 or n < 1 or d > n:
        raise DomainError(f"need 1 <= d <= n, got d={d}, n={n}")
    total = comb(n, d)
    if not 1 <= m <= total:
        raise DomainError(f"rank {m} out of range 1..{total} for n={n}, d={d}")
    return _unrank(m - 1, n, d)


def _unrank(remainder, n, d):
    """The word of unrank_word(remainder + 1, n, d), for arguments already checked.

    Scans positions p = n-1 down to 0 keeping b = C(p, j), where j is the
    number of ones still to place.  Moving to p - 1 updates b by one exact
    step, C(p-1, j) = C(p, j)(p-j)/p after a zero and C(p-1, j-1) =
    C(p, j)j/p after a one, instead of a fresh binomial per step.  Each
    division is checked by multiplying back; this costs less than a
    ``divmod`` call on the short words that dominate enumeration.
    """
    bits = []
    j = d
    b = comb(n - 1, d)
    for p in range(n - 1, -1, -1):
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
    d = _check_d(d)
    rank, ones = 1, 0
    for p, ch in enumerate(reversed(word)):
        if ch == "1":
            ones += 1
            rank += comb(p, ones)
        elif ch != "0":
            raise InputError(f"binary word may contain only 0/1, got {word!r}")
    if ones != d:
        raise InputError(f"word {word!r} has {ones} ones, expected {d}")
    return rank


def to_binary(alpha):
    """Encode a colored composition as a binary word.

    Each part (size n, color c) becomes the rank-c word of length
    n + d - 1 with d ones; parts are joined by single '1' separators.
    The result has length nu + d*k - 1 and exactly (d+1)*k - 1 ones.
    """
    try:
        d, parts = alpha.d, alpha.parts
    except AttributeError:
        raise InputError(f"expected a ColoredComposition, got {alpha!r}") from None
    return "1".join([_unrank(c - 1, s + d - 1, d) for s, c in parts])


class _PartWords(dict):
    """The word of each part (size, color) at one d, unranked on first lookup."""

    def __init__(self, d):
        super().__init__()
        self.d = d

    def __missing__(self, part):
        size, color = part
        d = index(self.d)  # checked by enum_colored before the first row
        word = self[part] = _unrank(color - 1, size + d - 1, d)
        return word


def enum_words(nu, d, k=None):
    """Yield (alpha, to_binary(alpha)) for each alpha of enum_colored(nu, d, k), in order.

    A part's word depends only on its size and color, so each is unranked
    once, the first time a row carries it, and every later row joins the
    stored words.  Each stored (size, color) begins a row of its own, so
    the table never holds more words than the stream has rows.
    """
    words = _PartWords(d)
    for alpha in compgen.enum_colored(nu, d, k):
        yield alpha, "1".join([words[part] for part in alpha.parts])


def from_binary(beta, d):
    """Decode a binary word back into a colored composition; inverts to_binary.

    Segmentation cuts strictly before every (d+1)-th remaining one, so
    each segment carries exactly d ones and trailing zeros stay attached
    to their part.  One right-to-left pass validates the characters, cuts
    the segments and ranks each one: a one that arrives when the current
    segment already holds d ones is a separator.
    """
    _check_word(beta)
    d = _check_d(d)
    parts = []
    rank, ones, start = 1, 0, len(beta)  # the current segment is beta[i + 1:start]
    for i in range(len(beta) - 1, -1, -1):
        ch = beta[i]
        if ch == "1":
            if ones == d:
                parts.append((start - i - d, rank))
                rank, ones, start = 1, 0, i
            else:
                ones += 1
                rank += comb(start - 1 - i, ones)
        elif ch != "0":
            raise InputError(f"binary word may contain only 0/1, got {beta!r}")
    if ones != d:
        total = len(parts) * (d + 1) + ones
        raise InputError(
            f"word with {total} ones cannot split into segments of {d} ones"
        )
    # A segment of length s + d - 1 with d ones ranks into 1..C(s + d - 1, d).
    parts.append((start - d + 1, rank))
    parts.reverse()
    return ColoredComposition._trusted(d, tuple(parts))


def image_of_word(kind, beta, d):
    """The family image of the codeword beta: a tuple of part sizes.

    ``kind`` is 'ones' (parts in {1, d+1}, summing to (d+1)nu - 1), 'mod'
    (parts = 1 mod d+1, summing to (d+1)nu) or 'ge' (parts >= d+1,
    summing to (d+1)nu + d), where beta = to_binary(alpha) for a colored
    composition alpha of nu.
    """
    image = kind_rules(kind).image
    _check_word(beta)
    d = _check_d(d)
    ones = beta.count("1")
    if ones + beta.count("0") != len(beta):
        raise InputError(f"binary word may contain only 0/1, got {beta!r}")
    if (ones + 1) % (d + 1):
        raise InputError(f"word with {ones} ones cannot split into segments of {d} ones")
    return image(beta, d + 1)


def word_of_image(kind, parts, d):
    """The codeword whose family image is ``parts``; inverts image_of_word.

    Rejects parts outside the family of ``kind`` for this d.
    """
    word = kind_rules(kind).word
    d = _check_d(d)
    try:
        parts = tuple(parts)
    except TypeError:
        raise InputError(f"parts must be a sequence of ints, got {parts!r}") from None
    if not parts:
        raise InputError("empty composition")
    if set(map(type, parts)) != {int}:  # one C-level pass in the common all-int case
        parts = tuple(as_int(p, "part") for p in parts)
    return word(parts, d + 1)


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
