"""Exhaustive, deterministic enumeration of colored and restricted compositions.

Everything here is a lazy generator so that full verification sweeps never
materialize the (six-figure) streams at once.  Ordering is canonical and
documented per function; counting modules are validated against these
streams in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .bell import require_prefix
from .closedform import family_rules, num_colors
from .errors import DomainError, InputError, as_int

__all__ = ["ColoredComposition", "enum_colored", "enum_family", "enum_weighted"]


@dataclass(frozen=True)
class ColoredComposition:
    """An ordered list of (size, color) parts under the d-polytopic color bound.

    Each part of size n carries a color in 1..C(n+d-1, d).
    """

    d: int
    parts: tuple

    def __post_init__(self):
        d = as_int(self.d, "d")
        if d < 1:
            raise DomainError(f"d must be >= 1, got {d}")
        if not self.parts:
            raise InputError("a composition needs at least one part")
        object.__setattr__(self, "d", d)
        try:
            parts = tuple(map(_int_pair, self.parts))
        except TypeError:
            raise InputError(f"parts must be a sequence of pairs, got {self.parts!r}") from None
        object.__setattr__(self, "parts", parts)
        for size, color in self.parts:
            if size < 1:
                raise InputError(f"part size must be >= 1, got {size}")
            bound = num_colors(size, self.d)
            if not 1 <= color <= bound:
                raise InputError(
                    f"color {color} out of range 1..{bound} for part size {size} (d={self.d})"
                )

    @classmethod
    def _trusted(cls, d, parts):
        """An instance from a tuple of int pairs already known to be valid.

        Skips ``__post_init__``: only for callers whose parts are valid by
        construction (enumeration over color ranges, decoding of ranks).
        """
        self = object.__new__(cls)
        fields = self.__dict__
        fields["d"] = d
        fields["parts"] = parts
        return self

    @property
    def total(self):
        return sum(size for size, _ in self.parts)

    def __str__(self):
        return ",".join(f"{size}^{color}" for size, color in self.parts)

    @classmethod
    def parse(cls, text, d):
        """Parse tokens like ``3^2,1^1`` (whitespace tolerated)."""
        parts = []
        for token in text.split(","):
            token = token.strip()
            if "^" not in token:
                raise InputError(f"bad part token {token!r}, expected size^color")
            size_s, _, color_s = token.partition("^")
            try:
                parts.append((int(size_s), int(color_s)))
            except ValueError:
                raise InputError(f"bad part token {token!r}") from None
        return cls(d, tuple(parts))


def _int_pair(part):
    """A part given as a (size, color) pair, as a pair of ints."""
    try:
        size, color = part
    except (TypeError, ValueError):
        raise InputError(f"part {part!r} is not a (size, color) pair") from None
    return as_int(size, "part size"), as_int(color, "color")


def _size_tuples_desc(n, k):
    """Compositions of n into exactly k positive parts, lexicographically descending."""
    if k == 1:
        yield (n,)
        return
    for first in range(n - k + 1, 0, -1):
        for rest in _size_tuples_desc(n - first, k - 1):
            yield (first,) + rest


def enum_colored(nu, d, k=None):
    """All d-polytopic-color compositions of nu, optionally with exactly k parts.

    Canonical order: ascending part count; within a part count, size
    tuples in descending lexicographic order; within fixed sizes, color
    tuples ascending with the leftmost color most significant.
    """
    nu, d = as_int(nu, "nu"), as_int(d, "d")
    if nu < 1 or d < 1:
        raise DomainError(f"need nu >= 1 and d >= 1, got {nu}, {d}")
    if k is not None:
        k = as_int(k, "k")
        if not 1 <= k <= nu:
            raise DomainError(f"need 1 <= k <= nu, got k={k}, nu={nu}")
    part_counts = range(1, nu + 1) if k is None else (k,)
    for kk in part_counts:
        for sizes in _size_tuples_desc(nu, kk):
            ranges = [range(1, num_colors(s, d) + 1) for s in sizes]
            for colors in product(*ranges):
                yield ColoredComposition._trusted(d, tuple(zip(sizes, colors)))


def enum_family(family, n):
    """All compositions of n in the restricted family, lexicographically ascending.

    Yields plain tuples of part sizes.
    """
    n = as_int(n, "n")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    admits = family_rules(family).admits
    sizes = [s for s in range(1, n + 1) if admits(s, family.m)]
    return _compositions_from(sizes, n)


def _compositions_from(sizes, n):
    """Compositions of n with parts in the ascending list ``sizes``, lexicographically ascending.

    Depth-first over a prefix of parts held in one list: ``picks`` keeps
    the index in ``sizes`` of each prefix part, so backtracking resumes
    with the next larger part.
    """
    prefix, picks = [], []
    remaining, i = n, 0
    while True:
        if i < len(sizes) and sizes[i] < remaining:
            prefix.append(sizes[i])
            picks.append(i)
            remaining -= sizes[i]
            i = 0
            continue
        if i < len(sizes) and sizes[i] == remaining:
            yield (*prefix, remaining)
        if not picks:
            return
        remaining += prefix.pop()
        i = picks.pop() + 1


def enum_weighted(w, n):
    """All w-color compositions of n, as tuples of (size, color) parts.

    The color of a part of size s ranges over 1..w[s]; sizes with weight
    zero never appear.  Order: first part ascending by (size, color),
    then recursively.
    """
    n = as_int(n, "n")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    require_prefix(w, n)

    def _walk(remaining):
        for s in range(1, remaining + 1):
            for c in range(1, w[s] + 1):
                if s == remaining:
                    yield ((s, c),)
                else:
                    for rest in _walk(remaining - s):
                        yield ((s, c),) + rest

    return _walk(n)
