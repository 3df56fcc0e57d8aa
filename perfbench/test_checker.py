"""Tests of the benchmark's own checker and tracer, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from colorcomp import cli  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

TINY = {
    "count-mix": {
        "pd": 2, "pd_by_parts": 1, "family": 3, "weighted": 2, "weighted_by_parts": 2, "invert": 2,
        "nu": [5, 20], "d": [2, 4], "family_n": [10, 40], "weighted_n": [5, 10],
        "by_parts_n": [3, 8], "invert_n": [5, 10], "weight_d": [1, 3],
    },
    "codec-random": {"ops": 18, "word_n": [8, 40], "nu": [4, 20], "d": [1, 3]},
    "enumerate-map": {"nu": 4, "d": 2, "map_to": "ge", "sample": 10},
    "verify-sweep": {"nu_max": 3, "d_max": 2},
}
SEED = 7


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return out.getvalue(), code


def _failed_ops(ops, outs):
    return sum(not workloads.passes(op, out) for op, out in zip(ops, outs))


def _flip(word, i=0):
    return word[:i] + ("0" if word[i] == "1" else "1") + word[i + 1:]


@pytest.mark.parametrize("workload", workloads.IN_PROCESS)
def test_in_process_workload_has_no_errors(workload):
    ops = workloads.OPS[workload](SEED, TINY[workload])
    _, latencies, outs = workloads.run_job(ops)
    assert len(latencies) == len(ops) > 0
    assert _failed_ops(ops, outs) / len(ops) == 0


@pytest.mark.parametrize("workload", workloads.IN_PROCESS)
def test_inputs_depend_only_on_the_seed(workload):
    def outputs(seed):
        return workloads.run_job(workloads.OPS[workload](seed, TINY[workload]))[2]

    assert outputs(SEED) == outputs(SEED)
    assert outputs(SEED) != outputs(SEED + 1)


def test_wrong_count_is_a_failure():
    ops = workloads.count_mix_ops(SEED, TINY["count-mix"])
    _, _, outs = workloads.run_job(ops)
    i = next(i for i, out in enumerate(outs) if isinstance(out, int))
    outs[i] += 1
    assert _failed_ops(ops, outs) == 1


def test_flipped_bit_in_an_encoded_word_is_a_failure():
    ops = workloads.codec_random_ops(SEED, TINY["codec-random"])
    _, _, outs = workloads.run_job(ops)
    for i, out in enumerate(outs):
        if isinstance(out, str):
            outs[i] = _flip(out)
    assert _failed_ops(ops, outs) == sum(isinstance(out, str) for out in outs) > 0


def test_raised_call_is_a_failure():
    op = workloads.Op("encode", lambda: 1 // 0, lambda out: True)
    _, _, outs = workloads.run_job([op])
    assert outs[0].error.startswith("ZeroDivisionError")
    assert _failed_ops([op], outs) == 1


def test_listing_checks():
    p = TINY["enumerate-map"]
    text, code = _cli(workloads.cli_argv("enumerate-map", p))
    lines = text.splitlines()
    assert code == 0 and len(lines) == workloads.cli_ops("enumerate-map", p) == refs.pd_total(4, 2)
    assert workloads.check_cli("enumerate-map", text, code, p, SEED) == 0

    row = json.loads(lines[5])
    row["word"] = _flip(row["word"], 1)
    flipped = lines[:5] + [json.dumps(row)] + lines[6:]
    assert workloads.check_listing("\n".join(flipped), p, SEED) == 1
    assert workloads.check_listing("\n".join(lines[1:]), p, SEED) == 1
    assert workloads.check_listing("\n".join(lines + lines[:1]), p, SEED) >= 1
    assert workloads.check_cli("enumerate-map", text, 1, p, SEED) == len(lines)


def test_listing_sample_round_trip_catches_swapped_colors():
    p = dict(TINY["enumerate-map"], sample=10**6)
    text, _ = _cli(workloads.cli_argv("enumerate-map", p))
    rows = [json.loads(line) for line in text.splitlines()]
    a, b = next(
        (r, s) for r in rows for s in rows
        if len(r["parts"]) == len(s["parts"]) and r["parts"] != s["parts"]
        and [q["size"] for q in r["parts"]] == [q["size"] for q in s["parts"]]
    )
    a["parts"], b["parts"] = b["parts"], a["parts"]  # every row still valid on its own
    assert workloads.check_listing("\n".join(json.dumps(r) for r in rows), p, SEED) == 2


def test_verify_checks():
    p = TINY["verify-sweep"]
    text, code = _cli(workloads.cli_argv("verify-sweep", p))
    cells = workloads.cli_ops("verify-sweep", p)
    assert workloads.check_verify(text, code, p) == 0
    report = json.loads(text)
    assert sum(c["cells"] for c in report["checks"]) == cells
    report["ok"] = False
    assert workloads.check_verify(json.dumps(report), code, p) == cells
    assert workloads.check_verify(text, 1, p) == cells
    assert workloads.check_verify(text, code, dict(p, nu_max=4)) > 0


def _traced(job):
    with Tracer() as tracer:
        job()
    return layer_metrics(tracer.dump(1.0))


def test_trace_attributes_work_to_the_right_layers():
    codec_ops = workloads.codec_random_ops(SEED, TINY["codec-random"])
    count_ops = workloads.count_mix_ops(SEED, TINY["count-mix"])
    on_codec = _traced(lambda: workloads.run_job(codec_ops))
    on_count = _traced(lambda: workloads.run_job(count_ops))
    on_list = _traced(lambda: _cli(workloads.cli_argv("enumerate-map", TINY["enumerate-map"])))
    on_verify = _traced(lambda: _cli(workloads.cli_argv("verify-sweep", TINY["verify-sweep"])))

    assert on_codec["bell.calls"] == on_list["bell.calls"] == 0
    assert on_count["bell.calls"] > 0 and on_count["closedform.calls"] > 0
    assert on_count["codec.self_s"] == on_codec["verify.self_s"] == 0
    assert on_codec["codec.unrank_word.calls"] > 0 and on_codec["codec.word_bits"] > 0
    assert on_list["codec.encodes_per_row"] == 2
    assert on_list["compgen.rows"] == refs.pd_total(4, 2)
    assert on_list["codec.maps.self_s"] > 0  # cli._MAPS is wrapped too
    rows = sum(refs.pd_total(nu, d) for nu in (1, 2, 3) for d in (1, 2))
    # four encodes per row, plus four per row of the 13-row golden table
    assert on_verify["codec.encodes_per_row"] == (4 * rows + 4 * 13) / rows
    assert on_verify["verify.cells"] == workloads.cli_ops("verify-sweep", TINY["verify-sweep"])
    assert all(on_list[f"verify.{f}.s"] == 0 for f in ("check_counts", "check_phi"))


def test_tracer_restores_the_package():
    before = (cli._MAPS, cli.main, workloads.codec.to_binary)
    _traced(lambda: None)
    assert (cli._MAPS, cli.main, workloads.codec.to_binary) == before


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    traced = set(_traced(lambda: None)) | {"trace.overhead"}
    assert traced == {m["name"] for m in spec["per_layer"]}
    reps = [{"wall": 1.0, "latencies": [0.1] * 20, "ops": 20}]
    result = {"reps": reps, "peak_rss_kb": 1024, "classes": None}
    assert set(run.end_to_end(result, [0.1])) == {m["name"] for m in spec["end_to_end"]}


def test_verify_cell_formula_matches_the_default_grid():
    assert refs.verify_cells(8, 4) == 481


def test_cli_command_reports_its_own_peak_memory(tmp_path):
    wall, out, code, peak_kb = run.run_cli(["count", "pd", "--nu", "3", "--d", "2"], tmp_path / "stderr")
    assert (out, code) == (b"13\n", 0) and wall > 0
    assert 0 < peak_kb < 200 * 1024
