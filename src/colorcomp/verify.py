"""Cross-check harness: every identity is recomputed at least two
independent ways over a parameter grid, and disagreements are collected
(with the first offending parameter tuple) instead of aborting the run.
"""

import os
import time
from math import comb, factorial

from . import bell, closedform, codec, compgen
from ._record import Record
from .closedform import FAMILIES, KINDS, Family
from .errors import ColorCompError, checked

__all__ = [
    "CheckResult",
    "CheckReport",
    "check_counts",
    "check_phi",
    "check_bijections",
    "golden_tables",
]


class CheckResult(Record):
    """One check over a grid: its cells, failures, first failing cell and time."""

    __match_args__ = ("name", "grid", "cells", "failures", "counterexample", "elapsed")

    def __init__(self, name, grid, cells, failures=0, counterexample=None, elapsed=0.0):
        self.name, self.grid, self.cells = name, grid, cells
        self.failures, self.counterexample, self.elapsed = failures, counterexample, elapsed

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


class CheckReport(Record):
    """The results of one or more checks.  ``elapsed`` is the wall time the
    checks took; each check's own ``elapsed`` is the work it took, and on
    several CPUs the checks' times add up to more than the wall time."""

    __match_args__ = ("checks", "elapsed")

    def __init__(self, checks=None, elapsed=0.0):
        self.checks, self.elapsed = [] if checks is None else checks, elapsed

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def merge(self, other):
        """Append ``other``'s checks; they ran after this report's, so their times add up."""
        self.checks.extend(other.checks)
        self.elapsed += other.elapsed
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
        # Here, not at the top: they would add to every import of the package.
        import json
        import platform

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
        self.start = self.last = time.perf_counter()

    def lap(self, check):
        now = time.perf_counter()
        check.elapsed += now - self.last
        self.last = now

    def report(self, checks):
        """A report of ``checks`` whose time is the wall time since this clock started."""
        return CheckReport(checks, time.perf_counter() - self.start)


def _families(nu, d):
    """(family, size) of the three images of a colored composition of nu, in KINDS order."""
    return tuple((Family(kind, d + 1), rules.size(nu, d + 1)) for kind, rules in FAMILIES.items())


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
    """Counting identities over 1 <= nu <= nu_max, 1 <= d <= d_max; enumerates nothing.

    Checks the four-way equality between the polytopic count and the
    three restricted-family counts, each both by the paper's binomial sum
    (``count_pd_k`` over k, each ``FAMILIES`` row's ``count``) and by its
    recurrence (``count_pd`` where d+1 < nu, ``count_family``), and the
    Bell-vs-binomial identity per part count.  Per d, one
    ``partial_bell_table`` at x_j = j! * num_colors(j, d) gives
    k! * B_{nu,k}, compared with nu! times each count: no division.
    """
    nu_max, d_max = checked(nu_max, "nu_max"), checked(d_max, "d_max")
    grid = f"nu<={nu_max}, d<={d_max}"
    fourway = CheckResult("four-way count identity", grid, 0)
    prop_bell = CheckResult("Bell recurrence vs closed form (per k)", grid, 0)
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
    return clock.report([fourway, prop_bell])


def check_phi(n_max, d_max):
    """Rank/unrank bijectivity and order compatibility for word lengths <= n_max."""
    n_max, d_max = checked(n_max, "n_max"), checked(d_max, "d_max")
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
    return clock.report([bijective, ordered])


def check_bijections(nu_max, d_max):
    """Bijection suite over 1 <= nu <= nu_max, 1 <= d <= d_max.

    Verifies the counts against enumeration sizes, the rank/unrank layer
    (word lengths up to nu_max + d_max), the binary-word codec round trip
    with exact image characterization per part count, and that each family
    map sends the rows of (nu, d) onto its family, by a counting argument
    that holds no image.  Every enumeration of the suite happens here.

    Each grid point is a cell of its own (``_bijection_cell``), so the
    cells run on every CPU this process may use, largest first, and their
    results are summed in grid order: the checks are the same however
    many run at once.  A check's time is the sum of its cells' times, the
    work it took; the report's time is the wall time of the whole suite.

    Each grid point is enumerated once, part count by part count, with
    the words of ``enum_words``, the public row encoder; each row's word
    must also equal ``to_binary`` of the row, so the two encoders check
    each other.  The part count's words are kept in one list, and the three
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
    strictly; an equal count makes the images the whole family.  The
    enumeration-size check holds the rows to ``count_pd`` and the same
    stream counts to ``count_family``.
    """
    nu_max, d_max = checked(nu_max, "nu_max"), checked(d_max, "d_max")
    clock = _Clock()
    phi = check_phi(nu_max + d_max, d_max)
    grid = f"nu<={nu_max}, d<={d_max}"
    cells = [(nu, d) for d in range(1, d_max + 1) for nu in range(1, nu_max + 1)]
    results = _map_cells(cells)
    enum_eq, codec_check, images = totals = [CheckResult(r.name, grid, 0) for r in results[0]]
    for cell in results:
        for total, part in zip(totals, cell):
            total.cells += part.cells
            total.failures += part.failures
            total.elapsed += part.elapsed
            if total.counterexample is None:
                total.counterexample = part.counterexample
    return clock.report([enum_eq, *phi.checks, codec_check, images])


def _workers(cells):
    """How many processes run ``cells``: the CPUs this process may use, at
    most one per cell; 1 where the platform cannot tell those CPUs or
    cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), len(cells))


def _map_cells(cells):
    """``_bijection_cell(nu, d)`` for each (nu, d) of ``cells``, in that order.

    With more than one worker the cells run in forked processes, which
    inherit this process's modules as they are, and are sent in reversed
    order, since the grid ends with its largest cells.  Otherwise they run
    here, and no pool module is imported.
    """
    workers = _workers(cells)
    if workers == 1:
        return [_bijection_cell(nu, d) for nu, d in cells]
    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    nus, ds = zip(*reversed(cells))
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=signal.signal,  # workers ignore Ctrl-C; this process stops them
        initargs=(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        results = list(pool.map(_bijection_cell, nus, ds))
    except BrokenProcessPool:
        raise ColorCompError(
            "a verify worker process died before returning its cell (killed, or out of memory)"
        ) from None
    except BaseException:
        # Otherwise shutting down would wait for the cells still running,
        # and the largest of them may take most of the run.  Before Python
        # 3.14 the executor has no public way to stop its workers.
        for process in list(pool._processes.values()):
            process.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
    return results[::-1]


def _bijection_cell(nu, d):
    """The enumeration-size, codec and image results of ``check_bijections``
    at grid point (nu, d) alone."""
    enum_eq = CheckResult("closed forms vs enumeration size", "", 1)
    codec_check = CheckResult("binary codec round trip and image", "", 0)
    images = CheckResult("family map images equal enumerations", "", 1)
    clock = _Clock()
    families = [
        (f, n, frozenset(s for s in range(1, n + 1) if f.admits(s))) for f, n in _families(nu, d)
    ]
    images_ok, rows = True, 0
    for k in range(1, nu + 1):
        codec_check.cells += 1
        length, ones = nu + d * k - 1, (d + 1) * k - 1
        words, ok = [], True
        for alpha, beta in codec.enum_words(nu, d, k):
            try:
                decoded = codec.from_binary(beta, d) == alpha
            except ColorCompError:  # beta is no codeword at this d
                decoded = False
            ok = ok and decoded and codec.to_binary(alpha) == beta
            ok = ok and (len(beta), beta.count("1")) == (length, ones)
            images_ok = images_ok and decoded
            words.append(beta)
        distinct = len(set(words))
        if not ok or distinct != closedform.count_pd_k(nu, d, k):
            codec_check.record((nu, d, k))
        clock.lap(codec_check)
        images_ok = images_ok and distinct == len(words)
        rows += len(words)
        for f, n, parts in families:
            try:
                for beta in words:
                    image = codec.image_of_word(f.kind, beta, d)
                    if not (
                        sum(image) == n
                        and parts.issuperset(image)
                        and codec.word_of_image(f.kind, image, d) == beta
                    ):
                        images_ok = False
            except ColorCompError:  # a word or image the maps refuse
                images_ok = False
        clock.lap(images)
    counts = [_ascending_count(compgen.enum_family(f, n)) for f, n, _ in families]
    if rows != closedform.count_pd(nu, d) or counts != [
        closedform.count_family(f, n) for f, n, _ in families
    ]:
        enum_eq.record((nu, d))
    clock.lap(enum_eq)
    if not images_ok or any(count != rows for count in counts):
        images.record((nu, d))
    clock.lap(images)
    return enum_eq, codec_check, images


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
        try:
            images = tuple(codec.image_of_word(kind, beta, 2) for kind in KINDS)
        except ColorCompError:  # beta is no codeword, so its row matches no golden row
            images = ()
        generated.append((str(alpha), beta, *images))
    result.cells = max(len(generated), len(GOLDEN_NU3_D2))
    for i in range(result.cells):
        got = generated[i] if i < len(generated) else None
        want = GOLDEN_NU3_D2[i] if i < len(GOLDEN_NU3_D2) else None
        if got != want:
            result.record((i + 1, want, got))
    clock.lap(result)
    return clock.report([result])
