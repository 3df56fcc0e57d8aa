"""Closed-form big-integer counts for colored and restricted compositions.

Covers the polytopic-color counts P_n(d) (per part count and total) and
the three restricted families: parts in {1, m}, parts congruent to 1 mod
m, and parts at least m.  The defining sums are evaluated for all n >= 1;
the vanishing-binomial convention C(a, b) = 0 for b < 0 or b > a makes
them correct below the paper-stated thresholds as well (confirmed against
brute-force enumeration in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import DomainError, as_int

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

# The family kinds, in the order every listing and check uses.
KINDS = ("ones", "mod", "ge")


@dataclass(frozen=True)
class Family:
    """A restricted-composition family: kind in {'ones', 'mod', 'ge'} and m >= 2.

    * ``ones``: parts drawn from {1, m}
    * ``mod``:  every part congruent to 1 modulo m
    * ``ge``:   every part at least m
    """

    kind: str
    m: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown family kind {self.kind!r}")
        object.__setattr__(self, "m", as_int(self.m, "m"))
        if self.m < 2:
            raise DomainError(f"family parameter m must be >= 2, got {self.m}")

    def admits(self, part):
        """Whether a part of the given size is allowed in this family."""
        if self.kind == "ones":
            return part == 1 or part == self.m
        if self.kind == "mod":
            return part % self.m == 1 % self.m
        return part >= self.m


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
    """Total number of polytopic-color compositions of nu."""
    nu, d = as_int(nu, "nu"), as_int(d, "d")
    if nu < 1 or d < 1:
        raise DomainError(f"need nu >= 1 and d >= 1, got {nu}, {d}")
    return sum(count_pd_k(nu, d, k) for k in range(1, nu + 1))


def count_family(family, n):
    """Size of the restricted family at n, by its closed-form sum."""
    n = as_int(n, "n")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    m = family.m
    if family.kind == "ones":
        return sum(comb(n - (m - 1) * j, j) for j in range(n // m + 1))
    if family.kind == "mod":
        return sum(comb(n - (m - 1) * j - 1, j) for j in range(n // m + 1))
    return sum(
        comb(n - (m - 1) * k - 1, k - 1) for k in range(1, (n - 1) // (m - 1) + 1)
    )
