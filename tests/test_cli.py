"""Command-line surface: outputs, formats, exit codes, round trips."""

import csv
import io
import itertools
import json
import os
import platform
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import colorcomp
from colorcomp import cli, codec
from colorcomp.cli import main
from colorcomp.closedform import FAMILIES, KINDS, AtLeastM, Family


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

    # Every entry is one weight, so an empty one is refused, not skipped: skipping
    # it would shift the sizes of the weights after it.
    @pytest.mark.parametrize(
        "weights, message",
        [
            ("1,,2,3", "weight 2 must be an integer, got ''"),
            ("1,2,3,", "weight 4 must be an integer, got ''"),
            ("1, ,2,3", "weight 2 must be an integer, got ' '"),
        ],
    )
    def test_weights_with_an_empty_entry_are_one_error(self, capsys, weights, message):
        code, out, err = run(capsys, "count", "weighted", "--n", "3", "--weights", weights)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_weights_file_with_a_blank_line_between_entries_is_one_error(self, capsys, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("1\n\n2\n3\n")
        code, out, err = run(capsys, "count", "weighted", "--n", "3", "--weights", str(path))
        assert (code, out, err) == (1, "", "error: weight 2 must be an integer, got ''\n")

    # The message names the one bad entry, not the whole list.
    def test_weights_file_error_names_only_the_bad_line(self, capsys, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("1\n" * 5000 + "x\n" + "1\n" * 5000)
        code, out, err = run(capsys, "count", "weighted", "--n", "3", "--weights", str(path))
        assert (code, out, err) == (1, "", "error: weight 5001 must be an integer, got 'x'\n")

    def test_weights_file_may_end_in_blank_lines(self, capsys, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("1\n2\n3\n\n  \n")
        code, out, _ = run(capsys, "count", "weighted", "--n", "3", "--weights", str(path))
        assert (code, out) == (0, "8\n")

    def test_weights_file_not_text(self, capsys, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_bytes(b"\xff\xfe1\n2\n")
        code, out, err = run(capsys, "count", "weighted", "--n", "2", "--weights", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_weights_file_unreadable(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "weights.txt"
        path.write_text("1\n2\n")

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "open", denied, raising=False)
        code, out, err = run(capsys, "count", "weighted", "--n", "2", "--weights", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Permission denied" in err

    # A path that is missing or is a directory is a read error with the OS reason,
    # not a bad weight.
    @pytest.mark.parametrize(
        "name, reason", [("missing.txt", "No such file"), ("", "directory")], ids=["missing", "dir"]
    )
    def test_weights_path_missing_or_a_directory(self, capsys, tmp_path, name, reason):
        path = str(tmp_path / name)
        code, out, err = run(capsys, "count", "weighted", "--n", "2", "--weights", path)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read weights file {path!r}: ")
        assert reason in err and err.count("\n") == 1


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


def row_fields(alpha, with_word, kind):
    """The fields of a ``list colored`` plain or csv row: ``str(alpha)``, then the
    word and the image, from ``to_binary`` and ``image_of_word``."""
    fields = [str(alpha)]
    word = colorcomp.to_binary(alpha)
    if with_word or kind:
        fields.append(word)
    if kind:
        fields.append(",".join(map(str, colorcomp.image_of_word(kind, word, alpha.d))))
    return fields


def colored_listings(nu, d, fmt):
    """(argv, with_word, kind, k) of every ``list colored`` form at (nu, d) in ``fmt``."""
    for with_word, kind, k in itertools.product(
        (False, True), (None, *KINDS), (None, *range(1, nu + 1))
    ):
        argv = ["list", "colored", "--nu", str(nu), "--d", str(d), "--format", fmt]
        argv += ["--with-word"] * with_word + ["--map-to", kind] * bool(kind)
        argv += ["--k", str(k)] * bool(k)
        yield argv, with_word, kind, k


# (nu, d) of the listing oracles: every form at d = 1, 2, and at (6, 3) heads
# of up to five parts whose colors move at every position.
COLORED_GRID = [*itertools.product(range(1, 6), (1, 2)), (6, 3)]


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

    @pytest.mark.parametrize("nu, d", COLORED_GRID)
    def test_colored_json_is_json_dumps(self, capsys, nu, d):
        for argv, with_word, kind, k in colored_listings(nu, d, "json"):
            code, out, _ = run(capsys, *argv)
            want = [json_row(alpha, with_word, kind) for alpha in colorcomp.enum_colored(nu, d, k)]
            assert (code, out.splitlines()) == (0, want), argv

    @pytest.mark.parametrize("nu, d", COLORED_GRID)
    def test_colored_plain_is_the_fields_joined(self, capsys, nu, d):
        for argv, with_word, kind, k in colored_listings(nu, d, "plain"):
            want = "".join(
                " | ".join(row_fields(alpha, with_word, kind)) + "\n"
                for alpha in colorcomp.enum_colored(nu, d, k)
            )
            assert run(capsys, *argv)[:2] == (0, want), argv

    @pytest.mark.parametrize("nu, d", COLORED_GRID)
    def test_colored_csv_is_csv_writer(self, capsys, nu, d):
        for argv, with_word, kind, k in colored_listings(nu, d, "csv"):
            want = io.StringIO()
            csv.writer(want).writerows(
                row_fields(alpha, with_word, kind) for alpha in colorcomp.enum_colored(nu, d, k)
            )
            assert run(capsys, *argv)[:2] == (0, want.getvalue()), argv

    def test_colored_unranks_each_distinct_part_once(self, capsys, monkeypatch):
        """At nu=9, d=3 the 43 371 rows carry C(12, 4) = 495 distinct (size, color) parts."""
        unranks = [0]
        unrank = codec._unrank

        def counted(remainder, n, d):
            unranks[0] += 1
            return unrank(remainder, n, d)

        monkeypatch.setattr(codec, "_unrank", counted)
        code, out, _ = run(capsys, "list", "colored", "--nu", "9", "--d", "3", "--map-to", "ge")
        assert (code, out.count("\n")) == (0, colorcomp.count_pd(9, 3))
        assert unranks[0] == comb(9 + 3, 3 + 1) == 495

    def test_colored_images_its_heads_from_a_table(self, capsys, monkeypatch):
        """The nu=9, d=3 ge listing calls the family's image once per distinct
        (rest, part) head step and once per distinct row tail, not per block."""
        calls = [0]
        rules = FAMILIES["ge"]

        def counted(beta, m):
            calls[0] += 1
            return rules.image(beta, m)

        monkeypatch.setitem(FAMILIES, "ge", rules._replace(image=counted))
        code, out, _ = run(capsys, "list", "colored", "--nu", "9", "--d", "3", "--map-to", "ge")
        assert (code, out.count("\n")) == (0, colorcomp.count_pd(9, 3))
        assert calls[0] < 4000

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_an_interrupt_keeps_the_rows_of_the_finished_blocks(self, capsys, monkeypatch, fmt):
        """KeyboardInterrupt from the block stream: stdout holds every row of the
        blocks before it, then ``error: interrupted`` and exit 1."""
        argv = ["list", "colored", "--nu", "7", "--d", "2", "--map-to", "ge", "--format", fmt]
        whole = run(capsys, *argv)[1]
        blocks = cli.compgen._blocks
        finished = []

        def interrupted(*args):
            d, stream = blocks(*args)

            def cut_short():
                for block in stream:
                    if len(finished) == 5:
                        raise KeyboardInterrupt
                    finished.append(len(block[-1]))  # the block's colors
                    yield block

            return d, cut_short()

        monkeypatch.setattr(cli.compgen, "_blocks", interrupted)
        code, out, err = run(capsys, *argv)
        rows = sum(finished)
        assert len(finished) == 5 and rows > 5
        assert (code, err) == (1, "error: interrupted\n")
        assert out.splitlines(keepends=True) == whole.splitlines(keepends=True)[:rows]

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_benchmark_listing_images_are_image_of_word(self, capsys, kind):
        """Every row of the nu=9, d=3 listing against ``to_binary`` and ``image_of_word``,
        with the split each row's word takes at its family's cut letter."""
        d, cut = 3, FAMILIES[kind].cut
        argv = ["list", "colored", "--nu", "9", "--d", str(d), "--map-to", kind]
        code, out, _ = run(capsys, *argv, "--with-word", "--format", "json")
        assert code == 0
        branches = set()
        for line in out.splitlines():
            row = json.loads(line)
            parts = [(p["size"], p["color"]) for p in row["parts"]]
            word = row["word"]
            assert word == codec.to_binary(colorcomp.ColoredComposition(d, parts)), line
            assert row["image"] == list(codec.image_of_word(kind, word, d)), line
            # The head's words and their separators: all but the last part's word.
            prefix = word[: len(word) - (parts[-1][0] + d - 1)]
            branches.add((prefix.rfind(cut) >= 0, len(parts) == 1))
        assert out.count("\n") == colorcomp.count_pd(9, d)
        # (the prefix holds a cut letter, one part): ones always cuts; mod's
        # prefix ends in its cut '1' unless the head is empty; ge also has
        # heads of parts of size 1, whose words hold no '0'.
        assert branches == {
            "ones": {(True, True), (True, False)},
            "mod": {(False, True), (True, False)},
            "ge": {(False, True), (False, False), (True, False)},
        }[kind]

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_family_is_json_dumps_and_csv_writer(self, capsys, kind):
        for m, n in itertools.product(range(2, 5), range(1, 11)):
            rows = list(colorcomp.enum_family(Family(kind, m), n))
            csv_text = io.StringIO()
            csv.writer(csv_text).writerows([",".join(map(str, parts))] for parts in rows)
            want = {
                "plain": "".join(",".join(map(str, parts)) + "\n" for parts in rows),
                "json": "".join(json.dumps({"parts": list(parts)}) + "\n" for parts in rows),
                "csv": csv_text.getvalue(),
            }
            for fmt, text in want.items():
                argv = ["list", "family", "--kind", kind, "--m", str(m), "--n", str(n)]
                assert run(capsys, *argv, "--format", fmt)[:2] == (0, text), (argv, fmt)

    def test_family(self, capsys):
        code, out, _ = run(
            capsys, "list", "family", "--kind", "ones", "--m", "3", "--n", "4"
        )
        assert code == 0
        assert out.strip().splitlines() == ["1,1,1,1", "1,3", "3,1"]

    def test_part_counts_past_the_recursion_limit(self, capsys):
        code, out, err = run(capsys, "list", "colored", "--nu", "1000", "--d", "1", "--k", "999")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == colorcomp.count_pd_k(1000, 1, 999) == 1998


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

    # The merged report's checks, in order, with their cells per check.
    def test_json_check_order_and_cells(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--nu-max", "3", "--d-max", "2", "--format", "json"
        )
        assert code == 0
        checks = [(c["name"], c["cells"]) for c in json.loads(out)["checks"]]
        assert checks == [
            ("golden 13-row correspondence (nu=3, d=2)", 13),
            ("four-way count identity", 6),
            ("Bell recurrence vs closed form (per k)", 12),
            ("closed forms vs enumeration size", 6),
            ("rank/unrank round trip and distinctness", 9),
            ("rank order matches binary value order", 9),
            ("binary codec round trip and image", 12),
            ("family map images equal enumerations", 6),
        ]

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

    @pytest.mark.parametrize("image", ["3", "3,5,4,3"])
    def test_inverse_map_of_a_non_image_is_one(self, capsys, image):
        code, out, err = run(capsys, "map", "--to", "ge", "--d", "2", "--inverse", "--input", image)
        total = sum(map(int, image.split(",")))
        assert (code, out) == (1, "")
        assert err == f"error: parts summing to {total} are not a ge image for d=2\n"

    @pytest.mark.parametrize("image", ["3,,1,1", "3,1,1,", ",3,1,1"])
    def test_inverse_map_of_an_empty_entry_is_one(self, capsys, image):
        code, out, err = run(capsys, "map", "--to", "ones", "--d", "2", "--inverse", "--input", image)
        assert (code, out) == (1, "")
        assert err == f"error: bad composition {image!r}, expected comma-separated ints\n"

    def test_bad_input_is_one(self, capsys):
        code, _, err = run(capsys, "rank", "--word", "12", "--d", "1")
        assert code == 1
        assert "error:" in err

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["count", "pd", "--nu", "3"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            "count family --kind ones --m 100000000000000000000 --n 100000000000000000001",
            "list colored --nu 100000000000000000000 --d 1 --k 1",
            "count pd --nu 100000000000000000000 --d 100000000000000000000 --k 1",
        ],
        ids=["family", "list", "pd-k"],
    )
    def test_too_large_for_the_machine_is_one(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert err.startswith("error: value too large for this machine (")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_out_of_memory_is_one(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli.closedform, "count_family", exhausted)
        code, out, err = run(capsys, "count", "family", "--kind", "ones", "--m", "3", "--n", "9")
        assert (code, out, err) == (1, "", "error: out of memory\n")

    def test_interrupt_is_one(self, capsys, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.closedform, "count_family", interrupted)
        code, out, err = run(capsys, "count", "family", "--kind", "ones", "--m", "3", "--n", "9")
        assert (code, out, err) == (1, "", "error: interrupted\n")

    @pytest.mark.parametrize(
        "form", [(), ("--k", "2"), ("--by-parts",)], ids=["total", "k", "by-parts"]
    )
    def test_short_weight_list_has_the_library_message(self, capsys, form):
        with pytest.raises(colorcomp.InputError) as excinfo:
            colorcomp.weighted_count(colorcomp.WeightSeq((1, 1, 0)), 5)
        code, out, err = run(capsys, "count", "weighted", "--n", "5", "--weights", "1,1,0", *form)
        assert (code, out, err) == (1, "", f"error: {excinfo.value}\n")


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


# The part of size 30 at d = 10 has C(39, 10) = 635 745 396 colors, all in the
# first block: its first row comes out before any of them is held in memory.
@pytest.mark.parametrize(
    "form, with_word, kind",
    [
        (("--map-to", "ge", "--format", "json"), False, "ge"),
        (("--with-word", "--format", "csv"), True, None),
    ],
    ids=["json-ge", "csv-word"],
)
def test_closed_pipe_exits_quietly_in_a_block_of_635_million_colors(form, with_word, kind):
    line = read_first_line("list", "colored", "--nu", "30", "--d", "10", *form)
    alpha = colorcomp.ColoredComposition(10, ((30, 1),))
    want = io.StringIO()
    if "json" in form:
        want.write(json_row(alpha, with_word, kind) + "\n")
    else:
        csv.writer(want).writerow(row_fields(alpha, with_word, kind))
    assert line == want.getvalue().encode()


def run_process(*argv):
    """``colorcomp <argv>`` in a fresh interpreter, with its default digit limit."""
    env = dict(os.environ, PYTHONPATH=str(Path(colorcomp.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "colorcomp.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def exact_decimal():
    """Lift this interpreter's int-to-str digit limit to write the expected outputs."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


# Words past the digit limit both ways: many ones, whose rank is C(20000, 10000),
# and few ones followed by a long run of zeros.
MANY_ONES = "1" * 10000 + "0" * 10000
ONES_THEN_ZEROS = "1" * 2000 + "0" * 120000
HUGE = "9" * 4400


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("count", "pd", "--nu", "12000", "--d", "1"), lambda: colorcomp.count_pd(12000, 1)),
        (
            ("count", "family", "--kind", "ge", "--m", "2", "--n", "30000"),
            lambda: colorcomp.count_family(AtLeastM(2), 30000),
        ),
        (("rank", "--word", MANY_ONES, "--d", "10000"), lambda: comb(20000, 10000)),
        (
            ("rank", "--word", ONES_THEN_ZEROS, "--d", "2000"),
            lambda: colorcomp.rank_word(ONES_THEN_ZEROS, 2000),
        ),
        (
            ("count", "weighted", "--n", "2", "--weights", f"{HUGE},1", "--by-parts"),
            lambda: f"k=1:1 k=2:{int(HUGE) ** 2}",
        ),
    ],
    ids=["pd-total", "family", "rank-many-ones", "rank", "weighted-by-parts"],
)
def test_counts_past_the_digit_limit_print_in_full(exact_decimal, argv, expected):
    """Each output has an integer of more than 4300 digits, Python's default limit."""
    code, out, err = run_process(*argv)
    assert (code, err) == (0, "")
    assert out == f"{expected()}\n"
    assert max(len(token.rpartition(":")[2]) for token in out.split()) > 4300
