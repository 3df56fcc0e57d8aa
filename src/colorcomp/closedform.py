"""Exact big-integer counts for colored and restricted compositions.

Covers the polytopic-color counts P_n(d) (per part count and total) and
the three restricted families: parts in {1, m}, parts congruent to 1 mod
m, and parts at least m, each one row of ``FAMILIES``, the one home of
their part rules, closed forms, image totals and word-level bijections.

``count_pd`` and ``count_family`` run exact linear recurrences read off
the generating functions: P(x) = x/((1-x)^(d+1) - x) for the total, and
1/(1-x-x^m), shifted by one offset per kind, for the families.  The
paper's binomial sums (``count_pd_k`` summed over k, and each row's
``count``) are their oracle in ``verify`` and the tests.  The sums are
evaluated for all n >= 1; the vanishing-binomial convention C(a, b) = 0
for b < 0 or b > a makes them correct below the paper-stated thresholds
as well (confirmed against brute-force enumeration in the test suite).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb
from operator import mul
from typing import Callable, NamedTuple

from .errors import DomainError, InputError, as_int

__all__ = [
    "Family",
    "OnesAndM",
    "OneModM",
    "AtLeastM",
    "num_colors",
    "count_pd_k",
    "count_pd",
    "count_family",
]


def _ones_word(parts, m):
    try:
        return "".join(map({1: "1", m: "0"}.__getitem__, parts))
    except KeyError as exc:
        raise InputError(f"part {exc.args[0]} not in {{1, {m}}}") from None


def _mod_word(parts, m):
    pieces = {}  # distinct part -> its run of zeros and the '1' after it
    for p in set(parts):
        run, rest = divmod(p - 1, m)
        if p < 1 or rest:
            raise InputError(f"part {p} is not 1 modulo {m}")
        pieces[p] = "0" * run + "1"
    return "".join(map(pieces.__getitem__, parts))[:-1]


def _ge_word(parts, m):
    pieces = {}  # distinct part -> its run of ones and the '0' after it
    for p in set(parts):
        if p < m:
            raise InputError(f"part {p} smaller than {m}")
        pieces[p] = "1" * (p - m) + "0"
    return "".join(map(pieces.__getitem__, parts))[:-1]


class _Rules(NamedTuple):
    """What one family kind is, written in its parameter m (m = d + 1 for the maps)."""

    admits: Callable[[int, int], bool]  # (part, m): the part rule
    count: Callable[[int, int], int]  # (n, m): the closed-form sum for compositions of n
    shift: Callable[[int], int]  # (m): the family's count at n is a_(n - shift) of 1/(1-x-x^m)
    size: Callable[[int, int], int]  # (nu, m): the total of the image of a composition of nu
    image: Callable[[str, int], tuple]  # (codeword, m) -> parts
    word: Callable[[tuple, int], str]  # (parts, m) -> codeword; rejects parts outside the family


# The three families, in the order every listing and check uses.
#   ones: every '1' of the codeword becomes a part 1, every '0' a part m.
#   mod:  the ones are separators; a gap of j zeros becomes a part mj + 1.
#   ge:   the zeros are separators; a gap of j ones becomes a part j + m.
FAMILIES = {
    "ones": _Rules(
        admits=lambda part, m: part == 1 or part == m,
        count=lambda n, m: sum(comb(n - (m - 1) * j, j) for j in range(n // m + 1)),
        shift=lambda m: 0,
        size=lambda nu, m: m * nu - 1,
        image=lambda beta, m: tuple(map({"1": 1, "0": m}.__getitem__, beta)),
        word=_ones_word,
    ),
    "mod": _Rules(
        admits=lambda part, m: part % m == 1 % m,
        count=lambda n, m: sum(comb(n - (m - 1) * j - 1, j) for j in range(n // m + 1)),
        shift=lambda m: 1,
        size=lambda nu, m: m * nu,
        image=lambda beta, m: tuple([m * len(gap) + 1 for gap in beta.split("1")]),
        word=_mod_word,
    ),
    "ge": _Rules(
        admits=lambda part, m: part >= m,
        count=lambda n, m: sum(
            comb(n - (m - 1) * k - 1, k - 1) for k in range(1, (n - 1) // (m - 1) + 1)
        ),
        shift=lambda m: m,
        size=lambda nu, m: m * nu + m - 1,
        image=lambda beta, m: tuple([len(gap) + m for gap in beta.split("0")]),
        word=_ge_word,
    ),
}
KINDS = tuple(FAMILIES)


def kind_rules(kind):
    """The ``FAMILIES`` row of a kind name; DomainError for an unknown kind."""
    try:
        return FAMILIES[kind]
    except (KeyError, TypeError):
        raise DomainError(f"unknown family kind {kind!r}") from None


def family_rules(family):
    """The ``FAMILIES`` row of a Family; InputError for any other object."""
    if not isinstance(family, Family):
        raise InputError(f"family must be a Family, got {family!r}")
    return FAMILIES[family.kind]


@dataclass(frozen=True)
class Family:
    """A restricted-composition family: a kind in ``KINDS`` and m >= 2.

    * ``ones``: parts drawn from {1, m}
    * ``mod``:  every part congruent to 1 modulo m
    * ``ge``:   every part at least m
    """

    kind: str
    m: int

    def __post_init__(self):
        kind_rules(self.kind)
        object.__setattr__(self, "m", as_int(self.m, "m"))
        if self.m < 2:
            raise DomainError(f"family parameter m must be >= 2, got {self.m}")

    def admits(self, part):
        """Whether a part of the given size is allowed in this family (never for size < 1)."""
        part = as_int(part, "part")
        return part >= 1 and FAMILIES[self.kind].admits(part, self.m)


def OnesAndM(m):
    """Compositions with parts of size 1 and m only."""
    return Family("ones", m)


def OneModM(m):
    """Compositions with all parts congruent to 1 modulo m."""
    return Family("mod", m)


def AtLeastM(m):
    """Compositions with no part smaller than m."""
    return Family("ge", m)


def num_colors(size, d):
    """Colors available to a part of the given size: C(size + d - 1, d)."""
    if size < 1 or d < 1:
        raise DomainError(f"need size >= 1 and d >= 1, got {size}, {d}")
    return comb(size + d - 1, d)


def count_pd_k(nu, d, k):
    """Polytopic-color compositions of nu with exactly k parts: C(nu+dk-1, nu-k)."""
    nu, d, k = as_int(nu, "nu"), as_int(d, "d"), as_int(k, "k")
    if nu < 1 or d < 1 or k < 1:
        raise DomainError(f"need nu, d, k >= 1, got {nu}, {d}, {k}")
    if k > nu:
        return 0
    return comb(nu + d * k - 1, nu - k)


def count_pd(nu, d):
    """Total number of polytopic-color compositions of nu.

    ((1-x)^(d+1) - x) P(x) = x gives the order-(d+1) recurrence
    P_n = [n=1] + P_(n-1) + sum_(i=1..d+1) (-1)^(i+1) C(d+1, i) P_(n-i),
    with P_n = 0 for n <= 0: no division, and only the first
    min(nu-1, d+1) coefficients are ever needed.
    """
    nu, d = as_int(nu, "nu"), as_int(d, "d")
    if nu < 1 or d < 1:
        raise DomainError(f"need nu >= 1 and d >= 1, got {nu}, {d}")
    r = min(nu - 1, d + 1)
    coeffs = [comb(d + 1, i) if i % 2 else -comb(d + 1, i) for i in range(1, r + 1)]
    window = deque([1], maxlen=max(r, 1))  # the last r of P_1, P_2, ...
    for _ in range(nu - 1):
        window.append(window[-1] + sum(map(mul, coeffs, reversed(window))))
    return window[-1]


def _ones_and_m(j, m):
    """a_j of 1/(1-x-x^m), the compositions of j into parts 1 and m (a_j = 0 for j < 0).

    a_j = a_(j-1) + a_(j-m) with a_0 = ... = a_(m-1) = 1, kept in a window
    of m values: slot j mod m holds a_(j-m) until a_j replaces it.
    """
    if j < 0:
        return 0
    a = [1] * m
    for i in range(m, j + 1):
        i %= m
        a[i] += a[i - 1]
    return a[j % m]


def count_family(family, n):
    """Size of the restricted family at n: a_(n - shift) of 1/(1-x-x^m).

    The generating functions are x^shift/(1-x-x^m) with shift 0 (ones),
    1 (mod) and m (ge); the row's closed-form ``count`` is the oracle.
    """
    n = as_int(n, "n")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return _ones_and_m(n - family_rules(family).shift(family.m), family.m)
