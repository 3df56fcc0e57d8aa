"""The cross-check harness itself: reports, determinism, serialization."""

import json

from colorcomp import (
    bell,
    check_bijections,
    check_counts,
    check_phi,
    cli,
    closedform,
    codec,
    count_pd,
    golden_tables,
)
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


class TestCheckCounts:
    def test_small_grid_passes(self):
        report = check_counts(3, 2)
        assert report.ok
        assert len(report.checks) == 3

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
        fourway, prop_bell, enum_eq = check_counts(6, 3).checks
        assert (fourway.failures, fourway.counterexample) == (3, (5, 1))
        assert prop_bell.passed and enum_eq.passed


class TestCheckBijections:
    def test_small_grid_passes(self):
        assert check_bijections(3, 2).ok

    def test_trivial_grid(self):
        assert check_bijections(1, 1).ok

    def test_medium_grid(self):
        assert check_bijections(7, 3).ok

    def test_encodes_each_row_once(self, monkeypatch):
        calls = count_encodes(monkeypatch)
        assert check_bijections(5, 3).ok
        rows = sum(count_pd(nu, d) for nu in range(1, 6) for d in range(1, 4))
        assert calls[0] == rows

    def test_phi_alone(self):
        report = check_phi(10, 4)
        assert report.ok
        assert all(c.cells > 0 for c in report.checks)


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

    def test_per_check_timing(self):
        report = check_counts(3, 2).merge(check_bijections(3, 2))
        assert all(c.elapsed > 0 and c.cells_per_s > 0 for c in report.checks)
        assert sum(c.elapsed for c in report.checks) <= report.elapsed
        assert report.to_text().count("cells/s") == len(report.checks)
        data = json.loads(report.to_json())
        assert [t["name"] for t in data["timings"]] == [c["name"] for c in data["checks"]]
        assert all(t["elapsed"] > 0 and t["cells_per_s"] > 0 for t in data["timings"])
        assert set(data) == {"ok", "elapsed", "checks", "timings"}
        assert set(data["checks"][0]) == {
            "name", "grid", "cells", "passed", "failures", "counterexample",
        }

    def test_zero_time_has_zero_rate(self):
        assert CheckResult("demo", "n<=1", cells=3).cells_per_s == 0.0

    def test_merge(self):
        merged = golden_tables().merge(check_counts(2, 2))
        assert len(merged.checks) == 4
        assert merged.ok


def test_list_with_map_encodes_each_row_once(monkeypatch, capsys):
    calls = count_encodes(monkeypatch)
    assert cli.main(["list", "colored", "--nu", "5", "--d", "2", "--map-to", "ge"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert calls[0] == len(rows) == count_pd(5, 2)
