"""Cross-check harness: every identity is recomputed at least two
independent ways over a parameter grid, and disagreements are collected
(with the first offending parameter tuple) instead of aborting the run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from math import comb, factorial

from . import bell, closedform, codec, compgen
from .closedform import FAMILIES, KINDS, Family
from .errors import DomainError, as_int

__all__ = [
    "CheckResult",
    "CheckReport",
    "check_counts",
    "check_phi",
    "check_bijections",
    "golden_tables",
]


@dataclass
class CheckResult:
    name: str
    grid: str
    cells: int
    failures: int = 0
    counterexample: tuple | None = None
    elapsed: float = 0.0

    @property
    def passed(self):
        return self.failures == 0

    @property
    def cells_per_s(self):
        return self.cells / self.elapsed if self.elapsed else 0.0

    def record(self, params):
        self.failures += 1
        if self.counterexample is None:
            self.counterexample = tuple(params)


@dataclass
class CheckReport:
    checks: list = field(default_factory=list)

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    @property
    def elapsed(self):
        return sum(c.elapsed for c in self.checks)

    def merge(self, other):
        self.checks.extend(other.checks)
        return self

    def to_text(self):
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = (
                f"[{status}] {c.name} ({c.grid}; {c.cells} cells; "
                f"{c.elapsed:.2f}s, {c.cells_per_s:.0f} cells/s)"
            )
            if not c.passed:
                line += f" -- {c.failures} failures, first at {c.counterexample}"
            lines.append(line)
        lines.append(
            f"{'OK' if self.ok else 'FAILED'}: "
            f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks "
            f"in {self.elapsed:.2f}s"
        )
        return "\n".join(lines)

    def to_json(self, grid=None):
        """The report as JSON; ``meta`` names the package and Python versions and ``grid``."""
        import platform  # here, not at the top: it would add to every import of the package

        from . import __version__  # the package has finished importing once a report exists

        return json.dumps(
            {
                "ok": self.ok,
                "elapsed": self.elapsed,
                "meta": {
                    "version": __version__,
                    "python": platform.python_version(),
                    "grid": grid,
                },
                "checks": [
                    {
                        "name": c.name,
                        "grid": c.grid,
                        "cells": c.cells,
                        "passed": c.passed,
                        "failures": c.failures,
                        "counterexample": list(c.counterexample)
                        if c.counterexample
                        else None,
                    }
                    for c in self.checks
                ],
                "timings": [
                    {"name": c.name, "elapsed": c.elapsed, "cells_per_s": c.cells_per_s}
                    for c in self.checks
                ],
            },
            indent=2,
        )


class _Clock:
    """Charges the wall time since its previous lap to one check."""

    def __init__(self):
        self.last = time.perf_counter()

    def lap(self, check):
        now = time.perf_counter()
        check.elapsed += now - self.last
        self.last = now


def _families(nu, d):
    """(family, size) of the three images of a colored composition of nu, in KINDS order."""
    return tuple((Family(kind, d + 1), rules.size(nu, d + 1)) for kind, rules in FAMILIES.items())


def _bound(value, name):
    """A grid bound as an int; DomainError below 1, where the grid would check nothing."""
    value = as_int(value, name)
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")
    return value


def _ascending_count(rows):
    """How many rows ``rows`` yields, or None unless each is greater than the one before.

    Holds one row at a time.  On a stream meant to ascend strictly, a
    duplicated or misplaced row shows up as a row that is not greater.
    """
    count, last = 0, None
    for row in rows:
        if count and row <= last:
            return None
        count, last = count + 1, row
    return count


def check_counts(nu_max, d_max):
    """Counting identities over 1 <= nu <= nu_max, 1 <= d <= d_max.

    Checks the four-way equality between the polytopic count and the
    three restricted-family counts, each both by the paper's binomial sum
    (``count_pd_k`` over k, each ``FAMILIES`` row's ``count``) and by its
    recurrence (``count_pd``, ``count_family``), the Bell-vs-binomial
    identity per part count, and the counts against enumeration sizes.
    Per d, one ``partial_bell_table`` at x_j = j! * num_colors(j, d) gives
    k! * B_{nu,k}, compared with nu! times each count: no division.
    """
    nu_max, d_max = _bound(nu_max, "nu_max"), _bound(d_max, "d_max")
    grid = f"nu<={nu_max}, d<={d_max}"
    fourway = CheckResult("four-way count identity", grid, 0)
    prop_bell = CheckResult("Bell recurrence vs closed form (per k)", grid, 0)
    enum_eq = CheckResult("closed forms vs enumeration size", grid, 0)
    clock = _Clock()
    for d in range(1, d_max + 1):
        w = bell.WeightSeq.polytopic(d, nu_max)
        x = [factorial(j) * closedform.num_colors(j, d) for j in range(1, nu_max + 1)]
        table = bell.partial_bell_table(nu_max, x)
        clock.lap(prop_bell)
        for nu in range(1, nu_max + 1):
            families = _families(nu, d)
            p = closedform.count_pd(nu, d)
            pd_k = [closedform.count_pd_k(nu, d, k) for k in range(1, nu + 1)]
            fourway.cells += 1
            paper = [sum(pd_k), *(FAMILIES[f.kind].count(n, f.m) for f, n in families)]
            routes = [closedform.count_family(f, n) for f, n in families]
            if any(c != p for c in paper + routes):
                fourway.record((nu, d))
            clock.lap(fourway)
            for k, count in enumerate(pd_k, start=1):
                prop_bell.cells += 1
                counts = (count, bell.weighted_count_k(w, nu, k))
                if any(factorial(k) * table[(nu, k)] != factorial(nu) * c for c in counts):
                    prop_bell.record((nu, d, k))
            clock.lap(prop_bell)
            enum_eq.cells += 1
            if p != sum(1 for _ in compgen.enum_colored(nu, d)) or any(
                _ascending_count(compgen.enum_family(f, n)) != count
                for (f, n), count in zip(families, routes)
            ):
                enum_eq.record((nu, d))
            clock.lap(enum_eq)
    return CheckReport([fourway, prop_bell, enum_eq])


def check_phi(n_max, d_max):
    """Rank/unrank bijectivity and order compatibility for word lengths <= n_max."""
    n_max, d_max = _bound(n_max, "n_max"), _bound(d_max, "d_max")
    grid = f"n<={n_max}, d<={min(n_max, d_max)}"
    bijective = CheckResult("rank/unrank round trip and distinctness", grid, 0)
    ordered = CheckResult("rank order matches binary value order", grid, 0)
    clock = _Clock()
    for n in range(1, n_max + 1):
        for d in range(1, min(n, d_max) + 1):
            words = [codec.unrank_word(m, n, d) for m in range(1, comb(n, d) + 1)]
            bijective.cells += 1
            if len(set(words)) != len(words) or any(
                len(word) != n or word.count("1") != d or codec.rank_word(word, d) != m
                for m, word in enumerate(words, start=1)
            ):
                bijective.record((n, d))
            clock.lap(bijective)
            ordered.cells += 1
            values = [int(word, 2) for word in words]
            if any(a >= b for a, b in zip(values, values[1:])):
                ordered.record((n, d))
            clock.lap(ordered)
    return CheckReport([bijective, ordered])


def check_bijections(nu_max, d_max, phi_n_max=None):
    """Bijection suite over 1 <= nu <= nu_max, 1 <= d <= d_max.

    Verifies the rank/unrank layer (word lengths up to ``phi_n_max``,
    default nu_max + d_max), the binary-word codec round trip with exact
    image characterization per part count, and that each family map sends
    the rows of (nu, d) onto its family, by a counting argument that holds
    no image.

    Each grid point is enumerated once, part count by part count, with
    the words of ``enum_words``, the listing's encoder; each row's word must
    also equal ``to_binary`` of the row, so the two encoders check each
    other.  The part count's words are kept in one list, and the three
    family images come from them; the clock laps once per part count
    for the codec check and once for the image check.  A family inverse is
    ``from_binary`` after ``word_of_image``, so checking
    ``word_of_image(image) == beta`` next to ``from_binary(beta) == alpha``
    checks every inverse map.

    The image check needs, for every row and kind: the row decodes from
    its word; the image has the family's total and only parts that
    ``Family.admits``; and ``word_of_image(image) == beta``.  The words of
    one part count are distinct, and those of different part counts differ
    in length.  So each image lies in the family, distinct rows have
    distinct images, and there are as many images as rows.  One walk of
    each ``enum_family`` stream counts its rows and checks that they ascend
    strictly; an equal count makes the images the whole family.
    """
    nu_max, d_max = _bound(nu_max, "nu_max"), _bound(d_max, "d_max")
    phi_n_max = nu_max + d_max if phi_n_max is None else _bound(phi_n_max, "phi_n_max")
    phi = check_phi(phi_n_max, d_max)
    grid = f"nu<={nu_max}, d<={d_max}"
    codec_check = CheckResult("binary codec round trip and image", grid, 0)
    images = CheckResult("family map images equal enumerations", grid, 0)
    clock = _Clock()
    for d in range(1, d_max + 1):
        for nu in range(1, nu_max + 1):
            images.cells += 1
            families = [
                (f, n, frozenset(s for s in range(1, n + 1) if f.admits(s)))
                for f, n in _families(nu, d)
            ]
            images_ok, rows = True, 0
            for k in range(1, nu + 1):
                codec_check.cells += 1
                length, ones = nu + d * k - 1, (d + 1) * k - 1
                words = []
                ok = True
                for alpha, beta in codec.enum_words(nu, d, k):
                    decoded = codec.from_binary(beta, d) == alpha
                    if (
                        not decoded
                        or codec.to_binary(alpha) != beta
                        or len(beta) != length
                        or beta.count("1") != ones
                    ):
                        ok = False
                    images_ok = images_ok and decoded
                    words.append(beta)
                distinct = len(set(words))
                if not ok or distinct != closedform.count_pd_k(nu, d, k):
                    codec_check.record((nu, d, k))
                clock.lap(codec_check)
                images_ok = images_ok and distinct == len(words)
                rows += len(words)
                for f, n, parts in families:
                    for beta in words:
                        image = codec.image_of_word(f.kind, beta, d)
                        if not (
                            sum(image) == n
                            and parts.issuperset(image)
                            and codec.word_of_image(f.kind, image, d) == beta
                        ):
                            images_ok = False
                clock.lap(images)
            if images_ok:
                images_ok = all(
                    _ascending_count(compgen.enum_family(f, n)) == rows for f, n, _ in families
                )
            if not images_ok:
                images.record((nu, d))
            clock.lap(images)
    return phi.merge(CheckReport([codec_check, images]))


# Golden correspondence for nu = 3, d = 2, transcribed row by row:
# (colored composition, binary word, image with parts in {1,3},
#  image with parts = 1 mod 3, image with parts >= 3).
# The sixth row's {1,3}-image is (1,1,3,3): the word 1100 forces it, and
# (3,3,1,1) would duplicate the first row under a bijection.
GOLDEN_NU3_D2 = (
    ("3^1", "0011", (3, 3, 1, 1), (7, 1, 1), (3, 3, 5)),
    ("3^2", "0101", (3, 1, 3, 1), (4, 4, 1), (3, 4, 4)),
    ("3^3", "0110", (3, 1, 1, 3), (4, 1, 4), (3, 5, 3)),
    ("3^4", "1001", (1, 3, 3, 1), (1, 7, 1), (4, 3, 4)),
    ("3^5", "1010", (1, 3, 1, 3), (1, 4, 4), (4, 4, 3)),
    ("3^6", "1100", (1, 1, 3, 3), (1, 1, 7), (5, 3, 3)),
    ("2^1,1^1", "011111", (3, 1, 1, 1, 1, 1), (4, 1, 1, 1, 1, 1), (3, 8)),
    ("2^2,1^1", "101111", (1, 3, 1, 1, 1, 1), (1, 4, 1, 1, 1, 1), (4, 7)),
    ("2^3,1^1", "110111", (1, 1, 3, 1, 1, 1), (1, 1, 4, 1, 1, 1), (5, 6)),
    ("1^1,2^1", "111011", (1, 1, 1, 3, 1, 1), (1, 1, 1, 4, 1, 1), (6, 5)),
    ("1^1,2^2", "111101", (1, 1, 1, 1, 3, 1), (1, 1, 1, 1, 4, 1), (7, 4)),
    ("1^1,2^3", "111110", (1, 1, 1, 1, 1, 3), (1, 1, 1, 1, 1, 4), (8, 3)),
    ("1^1,1^1,1^1", "11111111", (1,) * 8, (1,) * 9, (11,)),
)


def golden_tables():
    """Regenerate the 13-row nu=3, d=2 correspondence and diff it against
    the embedded golden data, binary-word column included."""
    result = CheckResult("golden 13-row correspondence (nu=3, d=2)", "nu=3, d=2", 0)
    clock = _Clock()
    generated = []
    for alpha, beta in codec.enum_words(3, 2):
        images = tuple(codec.image_of_word(kind, beta, 2) for kind in KINDS)
        generated.append((str(alpha), beta, *images))
    result.cells = max(len(generated), len(GOLDEN_NU3_D2))
    for i in range(result.cells):
        got = generated[i] if i < len(generated) else None
        want = GOLDEN_NU3_D2[i] if i < len(GOLDEN_NU3_D2) else None
        if got != want:
            result.record((i + 1, want, got))
    clock.lap(result)
    return CheckReport([result])
