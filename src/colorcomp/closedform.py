"""Exact big-integer counts for colored and restricted compositions.

Covers the polytopic-color counts P_n(d) (per part count and total) and
the three restricted families: parts in {1, m}, parts congruent to 1 mod
m, and parts at least m, each one row of ``FAMILIES``, the one home of
their part rules, closed forms, image totals, word-level bijections and
the letters at which their codewords can be cut.

``count_pd`` and ``count_family`` run exact linear recurrences read off
the generating functions.  For the total, P = W/(1-W) with
W = x/(1-x)^(d+1), so P = W (1 + P) is a shift and d+1 running sums per
term where d+1 < nu; where d+1 >= nu ``count_pd`` is the paper's sum of
``count_pd_k`` over k.  For the families, 1/(1-x-x^m), shifted by one
offset per kind.  The paper's binomial sums (``count_pd_k`` summed over
k, and each row's ``count``) are their oracle in ``verify`` and the
tests.  The sums are evaluated for all n >= 1; the vanishing-binomial
convention C(a, b) = 0 for b < 0 or b > a makes them correct below the
paper-stated thresholds as well (confirmed against brute-force
enumeration in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb, prod
from typing import Callable, NamedTuple

from .errors import DomainError, InputError, InternalError, as_int, checked

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


class _Rules(NamedTuple):
    """What one family kind is, written in its parameter m (m = d + 1 for the maps)."""

    admits: Callable[[int, int], bool]  # (part, m): the part rule, false for parts < 1
    count: Callable[[int, int], int]  # (n, m): the closed-form sum for compositions of n
    shift: Callable[[int], int]  # (m): the family's count at n is a_(n - shift) of 1/(1-x-x^m)
    size: Callable[[int, int], int]  # (nu, m): the total of the image of a composition of nu
    image: Callable[[str, int], tuple]  # (codeword, m) -> parts
    word: Callable[[tuple, int], str]  # (parts, m) -> codeword, for parts that ``admits``
    # The cut letter c: image(X + c + Y, m) == image(X, m) + image(Y, m) for any
    # 0/1 strings X and Y, and word(P + Q, m) == word(P, m) + c + word(Q, m) for
    # non-empty P and Q.  A listing splits its words there (``cli._write_colored``).
    cut: str


# The separators of the mod and ge codewords, each family's cut letter.
_MOD_CUT, _GE_CUT = "1", "0"

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
        # Through a list, so the tuple is built at its size and never resized.
        image=lambda beta, m: tuple(list(map({"1": 1, "0": m}.__getitem__, beta))),
        word=lambda parts, m: "".join(map({1: "1", m: "0"}.__getitem__, parts)),
        cut="",
    ),
    "mod": _Rules(
        admits=lambda part, m: part >= 1 and part % m == 1,
        count=lambda n, m: sum(comb(n - (m - 1) * j - 1, j) for j in range(n // m + 1)),
        shift=lambda m: 1,
        size=lambda nu, m: m * nu,
        image=lambda beta, m: tuple([m * len(gap) + 1 for gap in beta.split(_MOD_CUT)]),
        word=lambda parts, m: _MOD_CUT.join(["0" * (part // m) for part in parts]),
        cut=_MOD_CUT,
    ),
    "ge": _Rules(
        admits=lambda part, m: part >= m,
        count=lambda n, m: sum(
            comb(n - (m - 1) * k - 1, k - 1) for k in range(1, (n - 1) // (m - 1) + 1)
        ),
        shift=lambda m: m,
        size=lambda nu, m: m * nu + m - 1,
        image=lambda beta, m: tuple([len(gap) + m for gap in beta.split(_GE_CUT)]),
        word=lambda parts, m: _GE_CUT.join(["1" * (part - m) for part in parts]),
        cut=_GE_CUT,
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
        object.__setattr__(self, "m", checked(self.m, "m", 2))

    def admits(self, part):
        """Whether a part of the given size is allowed in this family: the row's part rule."""
        return FAMILIES[self.kind].admits(as_int(part, "part"), self.m)


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
    size, d = checked(size, "size"), checked(d, "d")
    return comb(size + d - 1, d)


def _pd_step_factors(nu, d, k):
    """Factors of C(nu+dk-1, nu-k) / C(N, K), with N = nu+d(k-1)-1 and K = nu-k+1.

    The ratio is K (N+1)...(N+d) / ((N-K+1)...(N-K+d+1)): d+1 small factors
    above and below.
    """
    n, top = nu + d * (k - 1) - 1, nu - k + 1
    return (top, *range(n + 1, n + d + 1)), range(n - top + 1, n - top + d + 2)


# The last (nu, d, k, value) count_pd_k computed.  It is read once and
# replaced whole, so an interleaved or concurrent caller misses it and pays
# one comb, never a wrong value.
_pd_last = None


def count_pd_k(nu, d, k):
    """Polytopic-color compositions of nu with exactly k parts: C(nu+dk-1, nu-k).

    A sweep k = 1, 2, ... at fixed (nu, d) steps each value from the one
    before with d+1 small factors and one checked division.  Where
    2d >= nu - k a fresh ``comb`` costs less, so the step is taken only
    below that line.
    """
    global _pd_last
    nu, d = checked(nu, "nu"), checked(d, "d")
    k = checked(k, "k", 1, nu)
    last = _pd_last
    if last is not None and last[:3] == (nu, d, k - 1) and 2 * d < nu - k:
        num, den = _pd_step_factors(nu, d, k)
        value, rest = divmod(last[3] * prod(num), prod(den))
        if rest:
            raise InternalError(f"inexact step to count_pd_k({nu}, {d}, {k})")
    else:
        value = comb(nu + d * k - 1, nu - k)
    _pd_last = (nu, d, k, value)
    return value


def count_pd(nu, d):
    """Total number of polytopic-color compositions of nu.

    P = W (1 + P) with W = x/(1-x)^(d+1), and multiplying by W is a shift
    followed by d+1 running sums.  Where d+1 < nu, d+2 sums are kept:
    S^0_n = [n=1] + P_(n-1), S^j_n = S^j_(n-1) + S^(j-1)_n, and P_n is the
    last, so each term costs d+1 additions and nothing else.

    Elsewhere the running sums would keep d+2 entries for only nu terms,
    so the total is the paper's sum of ``count_pd_k`` over k: nu
    binomials of fewer than nu factors each, nothing of size d.
    """
    nu, d = checked(nu, "nu"), checked(d, "d")
    if d + 1 < nu:
        sums = [1] + [0] * (d + 1)
        for _ in range(nu):
            sums = list(accumulate(sums))
            sums[0] = sums[-1]
        return sums[-1]
    return sum(count_pd_k(nu, d, k) for k in range(1, nu + 1))


def _ones_and_m(j, m):
    """a_j of 1/(1-x-x^m), the compositions of j into parts 1 and m (a_j = 0 for j < 0).

    a_j = a_(j-1) + a_(j-m) with a_0 = ... = a_(m-1) = 1, kept in a window
    of m values: slot j mod m holds a_(j-m) until a_j replaces it.
    """
    if j < m:
        return int(j >= 0)
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
    n = checked(n, "n")
    return _ones_and_m(n - family_rules(family).shift(family.m), family.m)
