"""The cross-check harness itself: reports, determinism, serialization."""

import gc
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from math import comb
from pathlib import Path

import pytest

from colorcomp import (
    bell,
    check_bijections,
    check_counts,
    check_phi,
    cli,
    closedform,
    codec,
    compgen,
    count_pd,
    golden_tables,
    verify,
)
from colorcomp.errors import DomainError
from colorcomp.verify import CheckReport, CheckResult


def count_encodes(monkeypatch):
    """Wrap codec.to_binary with a call counter; returns the counter."""
    calls = [0]
    encode = codec.to_binary

    def counted(alpha):
        calls[0] += 1
        return encode(alpha)

    monkeypatch.setattr(codec, "to_binary", counted)
    return calls


# Wrong enum_family streams, each applied to every (family, n), with the
# failures and first counterexample each gives both the image check and the
# enumeration-size check of check_bijections(5, 2).  At nu = 1 every family
# has one composition, so swapping the first two rows changes nothing there.
WRONG_STREAMS = {
    "last-row-dropped": (lambda rows: rows[:-1], 10, (1, 1)),
    "last-row-duplicated": (lambda rows: rows + rows[-1:], 10, (1, 1)),
    "first-two-swapped": (lambda rows: [*rows[1::-1], *rows[2:]], 8, (2, 1)),
    "first-row-repeated": (lambda rows: rows[:1] + rows[:-1], 8, (2, 1)),
}


def wrong_stream(monkeypatch, mutate):
    """Make compgen.enum_family yield ``mutate`` of its rows."""
    enum = compgen.enum_family
    monkeypatch.setattr(
        compgen, "enum_family", lambda family, n: iter(mutate(list(enum(family, n))))
    )


def wrong_to_binary(monkeypatch):
    """Make codec.to_binary give 3^2 at d = 2 the word of 3^1."""
    encode = codec.to_binary

    def wrong(alpha):
        return "0011" if (alpha.d, str(alpha)) == (2, "3^2") else encode(alpha)

    monkeypatch.setattr(codec, "to_binary", wrong)


def short_colored_stream(monkeypatch):
    """Make compgen.enum_colored drop the last row of (3, 2), for every part count."""
    enum = compgen.enum_colored

    def short(nu, d, k=None):
        rows = list(enum(nu, d, k))
        return iter(rows[:-1] if (nu, d) == (3, 2) else rows)

    monkeypatch.setattr(compgen, "enum_colored", short)


def word_with_an_extra_one(monkeypatch):
    """Make codec.enum_words give 2^1,1^1 at d = 2 the word 0111111, one '1'
    too many for a codeword at d = 2: from_binary and image_of_word refuse it."""
    enum = codec.enum_words

    def extra(nu, d, k=None):
        for alpha, beta in enum(nu, d, k):
            yield alpha, beta + "1" if (d, str(alpha)) == (2, "2^1,1^1") else beta

    monkeypatch.setattr(codec, "enum_words", extra)


def one_worker(monkeypatch):
    """Run check_bijections' cells in this process, where counters and traces see them."""
    monkeypatch.setattr(verify, "_workers", lambda cells: 1)


class TestCheckCounts:
    def test_small_grid_passes(self):
        report = check_counts(3, 2)
        assert report.ok
        assert len(report.checks) == 2

    def test_trivial_grid(self):
        assert check_counts(1, 1).ok

    def test_medium_grid(self):
        assert check_counts(8, 4).ok

    def test_builds_one_bell_table_per_d(self, monkeypatch):
        calls = [0]
        table = bell.partial_bell_table

        def counted(n, x):
            calls[0] += 1
            return table(n, x)

        monkeypatch.setattr(bell, "partial_bell_table", counted)
        assert check_counts(8, 4).ok
        assert calls[0] == 4

    def test_bell_check_catches_a_wrong_count(self, monkeypatch):
        count_k = bell.weighted_count_k

        def off_by_one(w, n, k):
            return count_k(w, n, k) + (n == 5 and k == 2)

        monkeypatch.setattr(bell, "weighted_count_k", off_by_one)
        bell_check = check_counts(6, 3).checks[1]
        assert bell_check.failures == 3
        assert bell_check.counterexample == (5, 1, 2)

    # The 'ge' image of a composition of nu has size (d + 1)(nu + 1) - 1, so
    # n = 11 is hit at (nu, d) = (5, 1), (3, 2) and (2, 3) of a 6 x 3 grid.
    def test_fourway_catches_a_wrong_recurrence(self, monkeypatch):
        count = closedform.count_family

        def off_by_one(family, n):
            return count(family, n) + (family.kind == "ge" and n == 11)

        monkeypatch.setattr(closedform, "count_family", off_by_one)
        fourway = check_counts(6, 3).checks[0]
        assert (fourway.failures, fourway.counterexample) == (3, (5, 1))

    def test_fourway_catches_a_wrong_closed_form(self, monkeypatch):
        rules = closedform.FAMILIES["ge"]
        wrong = rules._replace(count=lambda n, m: rules.count(n, m) + (n == 11))
        monkeypatch.setitem(closedform.FAMILIES, "ge", wrong)
        fourway, prop_bell = check_counts(6, 3).checks
        assert (fourway.failures, fourway.counterexample) == (3, (5, 1))
        assert prop_bell.passed and check_bijections(6, 3).checks[0].passed


class TestCheckBijections:
    def test_small_grid_passes(self):
        assert check_bijections(3, 2).ok

    def test_trivial_grid(self):
        assert check_bijections(1, 1).ok

    def test_medium_grid(self):
        assert check_bijections(7, 3).ok

    def test_encodes_each_row_once(self, monkeypatch):
        one_worker(monkeypatch)
        calls = count_encodes(monkeypatch)
        assert check_bijections(5, 3).ok
        rows = sum(count_pd(nu, d) for nu in range(1, 6) for d in range(1, 4))
        assert calls[0] == rows

    # Each wrong map or stream below leaves the codec intact, so of the last
    # two checks only the image check may fail.
    def image_check(self, failures, first):
        codec_check, images = check_bijections(5, 2).checks[-2:]
        assert codec_check.passed
        assert images.name == "family map images equal enumerations"
        assert (images.failures, images.counterexample) == (failures, first)

    # A consistent image/word pair whose images carry one extra part: m
    # breaks the 'ge' total, and 0 keeps the 'mod' total but breaks its
    # part rule.
    @pytest.mark.parametrize("kind, extra", [("ge", lambda m: m), ("mod", lambda m: 0)])
    def test_image_check_catches_images_outside_the_family(self, monkeypatch, kind, extra):
        image_of_word, word_of_image = codec.image_of_word, codec.word_of_image

        def wrong_image(k, beta, d):
            image = image_of_word(k, beta, d)
            return image + (extra(d + 1),) if k == kind else image

        def wrong_word(k, parts, d):
            return word_of_image(k, parts[:-1] if k == kind else parts, d)

        monkeypatch.setattr(codec, "image_of_word", wrong_image)
        monkeypatch.setattr(codec, "word_of_image", wrong_word)
        assert codec.word_of_image(kind, codec.image_of_word(kind, "0101", 2), 2) == "0101"
        self.image_check(10, (1, 1))

    @pytest.mark.parametrize("name", WRONG_STREAMS)
    def test_image_check_catches_a_wrong_stream(self, monkeypatch, name):
        mutate, failures, first = WRONG_STREAMS[name]
        wrong_stream(monkeypatch, mutate)
        self.image_check(failures, first)

    @pytest.mark.parametrize("name", WRONG_STREAMS)
    def test_enumeration_size_catches_a_wrong_stream(self, monkeypatch, name):
        mutate, failures, first = WRONG_STREAMS[name]
        wrong_stream(monkeypatch, mutate)
        enum_eq = check_bijections(5, 2).checks[0]
        assert enum_eq.name == "closed forms vs enumeration size"
        assert (enum_eq.failures, enum_eq.counterexample) == (failures, first)
        assert check_counts(5, 2).ok

    # A colored stream one row short at (3, 2), for every part count, fails
    # each per-k codec cell there, the row total and the image count.
    def test_short_colored_stream_fails_every_check_that_counts_rows(self, monkeypatch):
        short_colored_stream(monkeypatch)
        enum_eq, _, _, codec_check, images = check_bijections(5, 2).checks
        assert (enum_eq.failures, enum_eq.counterexample) == (1, (3, 2))
        assert (codec_check.failures, codec_check.counterexample) == (3, (3, 2, 1))
        assert (images.failures, images.counterexample) == (1, (3, 2))

    def test_image_check_catches_two_rows_with_one_image(self, monkeypatch):
        image_of_word = codec.image_of_word

        def merged(kind, beta, d):  # 0101 and 0011 encode 3^2 and 3^1 at d = 2
            return image_of_word(kind, "0011" if beta == "0101" else beta, d)

        monkeypatch.setattr(codec, "image_of_word", merged)
        self.image_check(1, (3, 2))

    # The image check counts one image per row, so it needs the rows, and
    # hence their words, to be distinct: a repeated row or a word that does
    # not decode to its row fails it, not only the codec check.
    def test_image_check_catches_a_repeated_row(self, monkeypatch):
        enum = compgen.enum_colored

        def repeated(nu, d, k=None):
            rows = list(enum(nu, d, k))
            if (nu, d, k) == (3, 2, 1):
                rows[1] = rows[0]
            return iter(rows)

        monkeypatch.setattr(compgen, "enum_colored", repeated)
        codec_check, images = check_bijections(5, 2).checks[-2:]
        assert (codec_check.failures, codec_check.counterexample) == (1, (3, 2, 1))
        assert (images.failures, images.counterexample) == (1, (3, 2))

    # verify takes each row's word from enum_words, the public row encoder,
    # and checks it against to_binary as well as by decoding it.
    def test_codec_check_catches_swapped_words(self, monkeypatch):
        enum = codec.enum_words

        def swapped(nu, d, k=None):
            rows = list(enum(nu, d, k))
            if (nu, d, k) == (3, 2, 1):  # 3^1 gets 0101 and 3^2 gets 0011
                (first, word), (second, other) = rows[:2]
                rows[:2] = [(first, other), (second, word)]
            return iter(rows)

        monkeypatch.setattr(codec, "enum_words", swapped)
        codec_check, images = check_bijections(5, 2).checks[-2:]
        assert codec_check.name == "binary codec round trip and image"
        assert (codec_check.failures, codec_check.counterexample) == (1, (3, 2, 1))
        assert (images.failures, images.counterexample) == (1, (3, 2))

    def test_codec_check_catches_a_wrong_to_binary(self, monkeypatch):
        wrong_to_binary(monkeypatch)
        codec_check, images = check_bijections(5, 2).checks[-2:]
        assert (codec_check.failures, codec_check.counterexample) == (1, (3, 2, 1))
        assert images.passed

    def test_image_check_catches_a_word_that_decodes_to_another_row(self, monkeypatch):
        decode = codec.from_binary
        monkeypatch.setattr(
            codec, "from_binary", lambda beta, d: decode("0011" if beta == "0101" else beta, d)
        )
        codec_check, images = check_bijections(5, 2).checks[-2:]
        assert (codec_check.failures, codec_check.counterexample) == (1, (3, 2, 1))
        assert (images.failures, images.counterexample) == (1, (3, 2))

    # Holding three sets of every image of a grid point peaks at 2.35 MB
    # here; holding one part count's words peaks at 1.40 MB.  A full
    # collection first empties the interpreter's free lists: objects reused
    # from them were allocated before tracing began and would not count.
    def test_holds_no_image_set(self, monkeypatch):
        one_worker(monkeypatch)
        gc.collect()
        tracemalloc.start()
        try:
            assert check_bijections(7, 3).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8e6

    def test_phi_alone(self):
        report = check_phi(10, 4)
        assert report.ok
        assert all(c.cells > 0 for c in report.checks)

    # The cells' results are summed in grid order, so the checks are the
    # same however many workers run the cells, and forked workers inherit
    # a mutation made before the pool starts.  A family stream one row
    # short fails ten cells, so it tells the first counterexample from the
    # last.
    @pytest.mark.parametrize(
        "mutate",
        [
            None,
            wrong_to_binary,
            short_colored_stream,
            lambda monkeypatch: wrong_stream(monkeypatch, WRONG_STREAMS["last-row-dropped"][0]),
        ],
        ids=["clean", "wrong-to-binary", "short-colored-stream", "short-family-stream"],
    )
    def test_checks_do_not_depend_on_the_workers(self, monkeypatch, mutate):
        if mutate:
            mutate(monkeypatch)

        def checks(workers):
            monkeypatch.setattr(verify, "_workers", lambda cells: workers)
            return [
                (c.name, c.grid, c.cells, c.failures, c.counterexample)
                for c in check_bijections(6, 3).checks
            ]

        alone = checks(1)
        assert all(failures == 0 for *_, failures, _ in alone) == (mutate is None)
        assert checks(2) == alone


@pytest.mark.parametrize(
    "check, args",
    [
        (check_counts, (0, 2)),
        (check_counts, (2, -3)),
        (check_phi, (0, 1)),
        (check_phi, (3, 0)),
        (check_bijections, (0, 2)),
        (check_bijections, (2, 0)),
    ],
)
def test_empty_grid_is_a_domain_error(check, args):
    with pytest.raises(DomainError, match="must be >= 1"):
        check(*args)


class TestGoldenTables:
    def test_passes(self):
        report = golden_tables()
        assert report.ok
        assert report.checks[0].cells == 13

    def test_deterministic(self):
        a = golden_tables().to_json()
        b = golden_tables().to_json()
        assert json.loads(a)["checks"] == json.loads(b)["checks"]


class TestReport:
    def test_failure_carries_counterexample(self):
        result = CheckResult("demo", "n<=2", cells=2)
        result.record((2, 1))
        result.record((2, 2))
        assert not result.passed
        assert result.failures == 2
        assert result.counterexample == (2, 1)

    def test_text_and_json_forms(self):
        report = CheckReport([CheckResult("good", "n<=1", cells=1)])
        bad = CheckResult("bad", "n<=1", cells=1)
        bad.record((1,))
        report.checks.append(bad)
        text = report.to_text()
        assert "[PASS] good" in text
        assert "[FAIL] bad" in text and "(1,)" in text
        data = json.loads(report.to_json())
        assert data["ok"] is False
        assert data["checks"][1]["counterexample"] == [1]

    # A check's time is the work it took; on one worker that work runs in
    # the report's own wall time, so the checks' times fit inside it.
    def test_per_check_timing(self, monkeypatch):
        one_worker(monkeypatch)
        report = check_counts(3, 2).merge(check_bijections(3, 2))
        assert all(c.elapsed > 0 and c.cells_per_s > 0 for c in report.checks)
        assert sum(c.elapsed for c in report.checks) <= report.elapsed
        assert report.to_text().count("cells/s") == len(report.checks)
        data = json.loads(report.to_json())
        assert [t["name"] for t in data["timings"]] == [c["name"] for c in data["checks"]]
        assert all(t["elapsed"] > 0 and t["cells_per_s"] > 0 for t in data["timings"])
        assert set(data) == {"ok", "elapsed", "meta", "checks", "timings"}
        assert set(data["meta"]) == {"version", "python", "grid"}
        assert set(data["checks"][0]) == {
            "name", "grid", "cells", "passed", "failures", "counterexample",
        }

    # With the cells on two workers, their times overlap: the report's time
    # is the wall time, less than the work its checks add up to.  Each
    # enum_words call sleeps inside the codec check's lap, in a worker.
    def test_total_is_wall_time_not_work(self, monkeypatch):
        enum_words = codec.enum_words

        def slow(*args):
            time.sleep(0.25)
            return enum_words(*args)

        monkeypatch.setattr(codec, "enum_words", slow)
        monkeypatch.setattr(verify, "_workers", lambda cells: 2)
        report = check_bijections(2, 1)
        assert report.ok
        assert sum(c.elapsed for c in report.checks) >= 3 * 0.25
        assert report.elapsed < sum(c.elapsed for c in report.checks)
        golden = golden_tables()
        wall = report.elapsed + golden.elapsed
        assert report.merge(golden).elapsed == wall

    def test_zero_time_has_zero_rate(self):
        assert CheckResult("demo", "n<=1", cells=3).cells_per_s == 0.0

    def test_merge(self):
        merged = golden_tables().merge(check_counts(2, 2))
        assert len(merged.checks) == 3
        assert merged.ok


# The listing builds each row's word by joining part words, each unranked
# once: C(nu + d, d + 1) of them, one per (size, color) of sizes 1..nu.
def test_list_with_map_encodes_each_row_once(monkeypatch, capsys):
    encodes = count_encodes(monkeypatch)
    unranks = [0]
    unrank = codec._unrank

    def counted(remainder, n, d):
        unranks[0] += 1
        return unrank(remainder, n, d)

    monkeypatch.setattr(codec, "_unrank", counted)
    assert cli.main(["list", "colored", "--nu", "5", "--d", "2", "--map-to", "ge"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == count_pd(5, 2)
    assert encodes[0] == 0
    assert unranks[0] == comb(5 + 2, 2 + 1) == 35


# check_counts enumerates nothing.  verify walks each (family, n) stream
# once, in check_bijections: three per grid point.  Its colored rows come
# one part count at a time, 20 streams, plus one for the golden table.
def test_verify_walks_each_stream_once(monkeypatch, capsys):
    calls = dict.fromkeys(("enum_colored", "enum_family"), 0)

    def counting(name, enum):
        def counted(*args):
            calls[name] += 1
            return enum(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(compgen, name, counting(name, getattr(compgen, name)))
    one_worker(monkeypatch)
    assert check_counts(4, 2).ok
    assert calls == {"enum_colored": 0, "enum_family": 0}
    assert cli.main(["verify", "--nu-max", "4", "--d-max", "2"]) == 0
    assert calls == {"enum_colored": 21, "enum_family": 24}


# A row whose word is no codeword fails the checks that read it, on one
# worker and on the pool alike, instead of aborting the run.
@pytest.mark.parametrize("workers", [1, 2])
def test_a_word_that_is_no_codeword_fails_its_checks(monkeypatch, capsys, workers):
    word_with_an_extra_one(monkeypatch)
    monkeypatch.setattr(verify, "_workers", lambda cells: workers)
    assert cli.main(["verify", "--nu-max", "4", "--d-max", "2"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    failed = [line.split(" (")[0] for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failed == [
        "[FAIL] golden 13-row correspondence",
        "[FAIL] binary codec round trip and image",
        "[FAIL] family map images equal enumerations",
    ]
    assert "-- 1 failures, first at (7, " in out
    assert "-- 1 failures, first at (3, 2, 2)\n" in out
    assert "-- 1 failures, first at (3, 2)\n" in out


_bijection_cell = verify._bijection_cell


def dies_at_one_cell(nu, d):
    """``verify._bijection_cell``, except that the process ends at (2, 2)."""
    if (nu, d) == (2, 2):
        os._exit(1)
    return _bijection_cell(nu, d)


def test_a_dead_worker_is_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_workers", lambda cells: 2)
    monkeypatch.setattr(verify, "_bijection_cell", dies_at_one_cell)
    assert cli.main(["verify", "--nu-max", "4", "--d-max", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a verify worker process died")
    assert captured.err.count("\n") == 1


def colorcomp_process(*args, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]))
    return subprocess.Popen(
        [sys.executable, *args], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs
    )


# Ctrl-C interrupts the whole process group.  The workers ignore it, and the
# parent stops them rather than wait for the cells they hold: the largest
# cell of this grid, (9, 5), takes several seconds on its own.
def test_an_interrupted_verify_is_one_error_line():
    proc = colorcomp_process(
        "-m", "colorcomp.cli", "verify", "--nu-max", "9", "--d-max", "5", start_new_session=True
    )
    time.sleep(0.5)
    os.killpg(proc.pid, signal.SIGINT)
    start = time.perf_counter()
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (1, b"", b"error: interrupted\n")
    assert time.perf_counter() - start < 2


# A worker with no cell left waits for the next one; an interrupt there
# would print the worker's traceback unless the worker ignores it.
def test_an_interrupt_leaves_idle_workers_quiet():
    script = """if True:
        import sys, time
        from colorcomp import cli, verify
        cell = verify._bijection_cell

        def slow_last_cell(nu, d):
            if (nu, d) == (4, 2):
                time.sleep(30)
            return cell(nu, d)

        verify._workers = lambda cells: 2
        verify._bijection_cell = slow_last_cell
        sys.exit(cli.main(["verify", "--nu-max", "4", "--d-max", "2"]))
    """
    proc = colorcomp_process("-c", script, start_new_session=True)
    time.sleep(0.5)
    os.killpg(proc.pid, signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (1, b"", b"error: interrupted\n")


# Importing the pool costs time on every command, so only a pool imports it.
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_pool_modules_load_only_for_a_pool():
    script = """if True:
        import os, sys
        import colorcomp, colorcomp.cli
        pool = ("concurrent.futures", "multiprocessing")
        assert not any(name in sys.modules for name in pool)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        assert colorcomp.cli.main(["verify", "--nu-max", "4", "--d-max", "2"]) == 0
        assert not any(name in sys.modules for name in pool)
    """
    proc = colorcomp_process("-c", script)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err.decode()
