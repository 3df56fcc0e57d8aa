"""Command-line surface: outputs, formats, exit codes, round trips."""

import csv
import io
import itertools
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import colorcomp
from colorcomp.cli import main
from colorcomp.closedform import KINDS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_pd(self, capsys):
        code, out, _ = run(capsys, "count", "pd", "--nu", "3", "--d", "2")
        assert (code, out.strip()) == (0, "13")

    def test_pd_by_parts(self, capsys):
        code, out, _ = run(capsys, "count", "pd", "--nu", "3", "--d", "2", "--by-parts")
        assert code == 0
        assert out.strip() == "k=1:6 k=2:6 k=3:1"

    def test_pd_k(self, capsys):
        code, out, _ = run(capsys, "count", "pd", "--nu", "3", "--d", "2", "--k", "2")
        assert (code, out.strip()) == (0, "6")
        code, out, err = run(capsys, "count", "pd", "--nu", "3", "--d", "2", "--k", "0")
        assert (code, out) == (1, "") and err.startswith("error:")

    def test_weighted_by_parts(self, capsys):
        code, out, _ = run(
            capsys, "count", "weighted", "--n", "5", "--weights", "1,1,0,0,0", "--by-parts"
        )
        assert (code, out.strip()) == (0, "k=1:0 k=2:0 k=3:3 k=4:4 k=5:1")
        code, out, err = run(
            capsys, "count", "weighted", "--n", "5", "--weights", "1,1,0", "--by-parts"
        )
        assert (code, out) == (1, "") and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "pd", "--nu", "3", "--d", "2"),
            ("count", "weighted", "--n", "5", "--weights", "1,1,0,0,0"),
        ],
    )
    def test_k_with_by_parts_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--k", "2", "--by-parts"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2 and captured.out == ""
        assert "argument --by-parts: not allowed with argument --k" in captured.err

    def test_by_parts_rejects_nonpositive_n(self, capsys):
        for argv in (
            ("count", "pd", "--nu", "0", "--d", "2"),
            ("count", "weighted", "--n", "0", "--weights", "1"),
        ):
            total = run(capsys, *argv)
            assert total[0] == 1 and total[2].startswith("error: ")
            assert run(capsys, *argv, "--by-parts") == (1, "", total[2])

    def test_family_empty(self, capsys):
        code, out, _ = run(
            capsys, "count", "family", "--kind", "ge", "--m", "3", "--n", "2"
        )
        assert (code, out.strip()) == (0, "0")

    def test_weighted_inline(self, capsys):
        code, out, _ = run(
            capsys, "count", "weighted", "--n", "5", "--weights", "1,1,0,0,0"
        )
        assert (code, out.strip()) == (0, "8")

    def test_weighted_from_file(self, capsys, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("1\n1\n0\n0\n0\n")
        code, out, _ = run(
            capsys, "count", "weighted", "--n", "5", "--weights", str(path), "--k", "3"
        )
        assert (code, out.strip()) == (0, "3")

    def test_large_count_full_decimal(self, capsys):
        code, out, _ = run(capsys, "count", "pd", "--nu", "80", "--d", "5")
        assert code == 0
        assert out.strip().isdigit() and len(out.strip()) > 20


def json_row(alpha, with_word, kind):
    """A ``list colored --format json`` line built as a dict passed to json.dumps,
    the oracle of the CLI's direct formatting."""
    row = {"parts": [{"size": s, "color": c} for s, c in alpha.parts], "d": alpha.d}
    word = colorcomp.to_binary(alpha)
    if with_word or kind:
        row["word"] = word
    if kind:
        row["image"] = list(colorcomp.image_of_word(kind, word, alpha.d))
    return json.dumps(row)


class TestList:
    def test_colored_trivial(self, capsys):
        code, out, _ = run(capsys, "list", "colored", "--nu", "1", "--d", "1")
        assert (code, out.strip()) == (0, "1^1")

    def test_colored_with_map(self, capsys):
        code, out, _ = run(
            capsys, "list", "colored", "--nu", "3", "--d", "2",
            "--with-word", "--map-to", "ge",
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 13
        assert lines[0] == "3^1 | 0011 | 3,3,5"
        assert lines[-1] == "1^1,1^1,1^1 | 11111111 | 11"

    def test_colored_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "list", "colored", "--nu", "2", "--d", "2",
            "--map-to", "ones", "--format", "json",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[0] == {
            "parts": [{"size": 2, "color": 1}],
            "d": 2,
            "word": "011",
            "image": [3, 1, 1],
        }

    def test_colored_csv(self, capsys):
        code, out, _ = run(
            capsys, "list", "colored", "--nu", "2", "--d", "2",
            "--with-word", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["2^1", "011"]
        assert len(rows) == 4

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 5])
    def test_colored_json_is_json_dumps(self, capsys, nu, d):
        for with_word, kind, k in itertools.product(
            (False, True), (None, *KINDS), (None, *range(1, nu + 1))
        ):
            argv = ["list", "colored", "--nu", str(nu), "--d", str(d), "--format", "json"]
            argv += ["--with-word"] * with_word + ["--map-to", kind] * bool(kind)
            argv += ["--k", str(k)] * bool(k)
            code, out, _ = run(capsys, *argv)
            want = [json_row(alpha, with_word, kind) for alpha in colorcomp.enum_colored(nu, d, k)]
            assert (code, out.splitlines()) == (0, want), argv

    def test_family(self, capsys):
        code, out, _ = run(
            capsys, "list", "family", "--kind", "ones", "--m", "3", "--n", "4"
        )
        assert code == 0
        assert out.strip().splitlines() == ["1,1,1,1", "1,3", "3,1"]


class TestRankUnrankMap:
    def test_unrank(self, capsys):
        code, out, _ = run(capsys, "unrank", "--m", "2", "--n", "3", "--d", "2")
        assert (code, out.strip()) == (0, "101")

    def test_rank(self, capsys):
        code, out, _ = run(capsys, "rank", "--word", "110", "--d", "2")
        assert (code, out.strip()) == (0, "3")

    def test_map_mod(self, capsys):
        code, out, _ = run(capsys, "map", "--to", "mod", "--d", "2", "--input", "1^1")
        assert (code, out.strip()) == (0, "1,1,1")

    def test_map_ones_inverse(self, capsys):
        code, out, _ = run(
            capsys, "map", "--to", "ones", "--d", "2",
            "--inverse", "--input", "1,3,1,1,1,1",
        )
        assert (code, out.strip()) == (0, "2^2,1^1")

    def test_map_round_trip(self, capsys):
        _, forward, _ = run(capsys, "map", "--to", "ge", "--d", "3", "--input", "4^2,2^1")
        code, back, _ = run(
            capsys, "map", "--to", "ge", "--d", "3",
            "--inverse", "--input", forward.strip(),
        )
        assert (code, back.strip()) == (0, "4^2,2^1")


class TestVerify:
    def test_small_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--nu-max", "3", "--d-max", "2")
        assert code == 0
        assert "OK" in out

    def test_trivial_pass(self, capsys):
        code, _, _ = run(capsys, "verify", "--nu-max", "1", "--d-max", "1")
        assert code == 0

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--nu-max", "2", "--d-max", "2", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["meta"] == {
            "version": colorcomp.__version__,
            "python": platform.python_version(),
            "grid": {"nu_max": 2, "d_max": 2},
        }

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (("--nu-max", "2", "--d-max", "0"), "d_max must be >= 1, got 0"),
            (("--nu-max", "2", "--d-max", "-3"), "d_max must be >= 1, got -3"),
            (("--nu-max", "0"), "nu_max must be >= 1, got 0"),
        ],
    )
    def test_empty_grid_fails(self, capsys, bounds, message):
        code, out, err = run(capsys, "verify", *bounds)
        assert code == 1
        assert "OK" not in out
        assert err.strip() == f"error: {message}"


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, _, err = run(capsys, "unrank", "--m", "99", "--n", "3", "--d", "2")
        assert code == 1
        assert "error:" in err

    def test_bad_input_is_one(self, capsys):
        code, _, err = run(capsys, "rank", "--word", "12", "--d", "1")
        assert code == 1
        assert "error:" in err

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["count", "pd", "--nu", "3"])
        assert excinfo.value.code == 2


def read_first_line(*argv):
    """``colorcomp <argv> | head -1``: the first line, after which the reader goes away."""
    env = dict(os.environ, PYTHONPATH=str(Path(colorcomp.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "colorcomp.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    line = proc.stdout.readline()
    proc.stdout.close()  # the reader goes away while rows are still being written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in err and b"Error" not in err
    return line


def test_closed_pipe_exits_quietly():
    """``colorcomp list colored --nu 10 --d 3 | head -1``: no traceback, exit 0."""
    assert read_first_line("list", "colored", "--nu", "10", "--d", "3") == b"10^1\n"


def test_closed_pipe_exits_quietly_on_json_words():
    line = read_first_line(
        "list", "colored", "--nu", "10", "--d", "3", "--map-to", "ge", "--format", "json"
    )
    assert json.loads(line) == {
        "parts": [{"size": 10, "color": 1}],
        "d": 3,
        "word": "000000000111",
        "image": [4] * 9 + [7],
    }
