"""Exhaustive, deterministic enumeration of colored and restricted compositions.

Everything here is a lazy generator so that full verification sweeps never
materialize the (six-figure) streams at once.  Ordering is canonical and
documented per function; counting modules are validated against these
streams in the test suite.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain

from .bell import require_prefix
from .closedform import family_rules, num_colors
from .errors import InputError, as_int, checked

__all__ = ["ColoredComposition", "enum_colored", "enum_family", "enum_weighted"]


@dataclass(frozen=True)
class ColoredComposition:
    """An ordered list of (size, color) parts under the d-polytopic color bound.

    Each part of size n carries a color in 1..C(n+d-1, d).
    """

    d: int
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "d", checked(self.d, "d"))
        if not self.parts:
            raise InputError("a composition needs at least one part")
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
    """Compositions of n into exactly k positive parts, lexicographically descending.

    Walks one list without recursion, so k is not bounded by the recursion
    limit.  From (n-k+1, 1, ..., 1), each step takes one from the rightmost
    part before the last that exceeds 1; the parts to its right become one
    part followed by 1s.  Requires 1 <= k <= n.
    """
    parts = [n - k + 1] + [1] * (k - 1)
    while True:
        yield tuple(parts)
        i = k - 2
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        parts[i] -= 1
        # The parts right of i were 1, ..., 1, last; they now sum to last + k - 1 - i.
        last, parts[-1] = parts[-1], 1
        parts[i + 1] = last + 1


def enum_colored(nu, d, k=None):
    """All d-polytopic-color compositions of nu, optionally with exactly k parts.

    Canonical order: ascending part count; within a part count, size
    tuples in descending lexicographic order; within fixed sizes, color
    tuples ascending with the leftmost color most significant.  The rows
    are the blocks of ``_blocks`` expanded, one row per last color.
    """
    d, blocks = _blocks(nu, d, k)
    for _, head, last, colors in blocks:
        for c in colors:
            yield ColoredComposition._trusted(d, (*head, (last, c)))


def _blocks(nu, d, k=None):
    """The checked d, and a stream of the blocks of enum_colored(nu, d, k) in order.

    A block (moved, head, last, colors) holds the rows that share every
    part but the last: ``head`` is their (size, color) pairs, ``last`` the
    last part's size and ``colors`` the ``range`` of its colors.  ``moved``
    is the leftmost position at which ``head`` differs from the previous
    block's head: 0 at the first block of each size tuple, so ``head[:moved]``
    is the previous head's too.  The arguments are checked here, before the
    first block is asked for.
    """
    nu, d = checked(nu, "nu"), checked(d, "d")
    part_counts = range(1, nu + 1) if k is None else (checked(k, "k", 1, nu),)
    return d, chain.from_iterable(
        _colorings(sizes, d) for kk in part_counts for sizes in _size_tuples_desc(nu, kk)
    )


def _colorings(sizes, d):
    """Every coloring of the part sizes ``sizes`` as blocks, the leftmost color most significant.

    An odometer over the colors of all parts but the last, stepped in one
    list of (size, color) parts; each of its positions is one block, whose
    last part's colors are a plain ``range``, the odometer's fastest digit
    (Knuth's mixed-radix generation, TAOCP 4A, 7.2.1.1, Algorithm M).  The
    digit a step increments is the block's ``moved`` position: the digits
    right of it went back to color 1 and those left of it kept their
    parts.  So a step makes one new part, and a block's head is a copy of
    the list.  No color range is ever held in memory.  A part with more
    colors than a machine index counts is refused: its rows could never
    all be listed.
    """
    bounds = [num_colors(s, d) for s in sizes]
    if max(bounds) > sys.maxsize:
        raise OverflowError(f"a part of size {max(sizes)} has more than {sys.maxsize} colors")
    *head_sizes, last = sizes
    firsts = [(size, 1) for size in head_sizes]
    head, rightmost = firsts.copy(), len(firsts) - 1
    last_colors = range(1, bounds[-1] + 1)
    moved = 0
    while True:
        yield moved, tuple(head), last, last_colors
        moved = rightmost
        while moved >= 0 and head[moved][1] == bounds[moved]:
            head[moved] = firsts[moved]
            moved -= 1
        if moved < 0:
            return
        size, color = head[moved]
        head[moved] = (size, color + 1)


def enum_family(family, n):
    """All compositions of n in the restricted family, lexicographically ascending.

    Yields plain tuples of part sizes.
    """
    n = checked(n, "n")
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

    The color of a part of size s ranges over 1..w_s, read from the tuple
    :func:`require_prefix` hands out; sizes with weight zero never appear.
    Order: first part ascending by (size, color), then the rest the same way.
    """
    n = checked(n, "n")
    return _weighted_from(require_prefix(w, n), n)


def _weighted_from(ws, n):
    """The compositions of enum_weighted(w, n), for the checked prefix ws of w.

    Depth-first over a prefix of parts held in one list, so the part count
    is not bounded by the recursion limit: (s, c) is the last part tried at
    the current depth, and backtracking resumes after the part it pops.
    """
    prefix = []
    remaining, s, c = n, 1, 0
    while True:
        c += 1
        while s <= remaining and c > ws[s - 1]:
            s, c = s + 1, 1
        if s < remaining:
            prefix.append((s, c))
            remaining -= s
            s, c = 1, 0
        elif s == remaining:
            yield (*prefix, (s, c))
        elif prefix:
            s, c = prefix.pop()
            remaining += s
        else:
            return
