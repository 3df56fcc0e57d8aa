"""colorcomp benchmark: the command that runs it.

    python3 perfbench/run.py --workload count-mix --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Runs from the root of a source checkout and imports ``colorcomp`` from its
``src/``.  With ``--trace 0`` it measures the end-to-end metrics with no
tracing; with ``--trace 1`` it runs the job untraced for half the time and
then once under the tracer, and reports the per-layer metrics.  It prints
one line per metric, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are the
ones BENCHMARK.json names.  A results file with the run's parameters and
versions goes to ``.perfbench_out/``.

One child process at a time, each waited for before the next starts, and
no threads.  DESIGN.md says why each workload is there and what each
metric should show.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
SETUP_CODE = "import colorcomp, colorcomp.cli; colorcomp.cli.build_parser()"
CHILD_TIMEOUT_S = 170
PEAK_TAG = "perfbench-peak-rss-kb"
# Runs colorcomp as `python -m colorcomp.cli` does, then writes the process's
# own peak resident memory to stderr.  That is VmHWM: wait4's ru_maxrss would
# also count the memory of the benchmark process the command was forked from.
CLI_CODE = f"""\
import atexit, runpy, sys
def report():
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write("\\n{PEAK_TAG} " + peak + "\\n")
atexit.register(report)
sys.argv[0] = "colorcomp"
runpy.run_module("colorcomp.cli", run_name="__main__", alter_sys=True)
"""

if not (SRC / "colorcomp" / "__init__.py").is_file():
    sys.exit(f"error: no colorcomp sources under {SRC}; run from a colorcomp checkout")
sys.path.insert(0, str(SRC))

import colorcomp  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _env():
    """Children run the checkout's sources with Python's default settings.

    Every PYTHON* variable of the caller is dropped. For example,
    PYTHONUNBUFFERED would make each printed row its own write, and
    PYTHONDONTWRITEBYTECODE would recompile the package on every start.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(*args):
    """Run a Python child on the checkout's sources; its stdout, or an error if it fails."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _child(*args):
    """Run perfbench/child.py and parse the JSON line it ends with."""
    return json.loads(_python(str(HERE / "child.py"), *args).splitlines()[-1])


def measure_setup():
    """Fresh-interpreter times to import colorcomp and build the CLI parser, in s."""
    _python("-c", SETUP_CODE)  # writes the bytecode cache, untimed
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        _python("-c", SETUP_CODE)
        samples.append(perf_counter() - start)
    return samples


def run_cli(argv, errpath):
    """One ``colorcomp`` command: (wall s, stdout bytes, exit code, peak RSS KiB)."""
    with open(errpath, "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_CODE, *argv],
            cwd=ROOT,
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=err,
        )
        with proc.stdout:
            out = proc.stdout.read()
        code = proc.wait()
        wall = perf_counter() - start
        err.seek(0)
        tagged = [line for line in err.read().decode(errors="replace").splitlines() if line.startswith(PEAK_TAG)]
    peak_kb = int(tagged[-1].split()[1]) if tagged else 0
    return wall, out, code, peak_kb


def cli_job(workload, params, seed, seconds, trace):
    """Repeat the workload's command for ``seconds``; check each distinct output once, untimed."""
    argv = workloads.cli_argv(workload, params)
    ops = workloads.cli_ops(workload, params)
    reps, checked, failed = [], {}, 0
    OUT.mkdir(exist_ok=True)
    start = perf_counter()
    while True:
        wall, out, code, rss_kb = run_cli(argv, OUT / "stderr.txt")
        reps.append({"wall": wall, "latencies": [wall], "ops": ops, "peak_rss_kb": rss_kb})
        digest = (hashlib.sha256(out).hexdigest(), code)
        if digest not in checked:
            checked[digest] = workloads.check_cli(workload, out.decode(errors="replace"), code, params, seed)
        failed += checked[digest]
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(reps) > seconds:  # the next job would overrun
            break
    result = {
        "reps": reps,
        "attempted": ops * len(reps),
        "failed": failed,
        "peak_rss_kb": median(r["peak_rss_kb"] for r in reps),
        "classes": None,
        "trace": None,
    }
    if trace:
        start = perf_counter()
        traced = _child("--trace-cli", workload, str(seed))
        result["traced_wall"] = perf_counter() - start
        result["trace"] = traced["trace"]
        result["attempted"] += ops
        result["failed"] += traced["failed"]
    return result


def in_process_job(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    result = _child(*args, *(["--trace"] if trace else []))
    if trace:
        result["traced_wall"] = result["trace"]["wall_s"]
    return result


def _tail(latencies):
    """The highest percentile with at least 10 samples above it, and that percentile."""
    n = len(latencies)
    if n < 11:
        return max(latencies), 100.0
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def end_to_end(result, setup):
    """End-to-end metrics and, per metric, how it was taken."""
    reps = result["reps"]
    jobs = f"median of {len(reps)} jobs"
    per_job = len(reps[0]["latencies"])
    tails = [_tail(r["latencies"]) for r in reps]
    metrics = {
        "setup_s": (median(setup), f"median of {len(setup)} fresh interpreters"),
        "wall_s": (median(r["wall"] for r in reps), jobs),
        "ops_per_s": (median(r["ops"] / r["wall"] for r in reps), f"{reps[0]['ops']} ops per job, {jobs}"),
        "latency_p50_ms": (
            1000 * median(median(r["latencies"]) for r in reps),
            f"p50 of {per_job} per job, {jobs}",
        ),
        "latency_tail_ms": (
            1000 * median(t for t, _ in tails),
            f"p{tails[0][1]:.4g} of {per_job} per job, {jobs}",
        ),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "peak resident memory of the child that ran the jobs"),
    }
    classes = result["classes"] or []
    for klass in sorted(set(classes)):
        picks = [i for i, c in enumerate(classes) if c == klass]
        metrics[f"{klass}_p50_ms"] = (
            1000 * median(median(r["latencies"][i] for i in picks) for r in reps),
            f"p50 of {len(picks)} per job, {jobs}",
        )
    return metrics


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns its results record."""
    params = workloads.PARAMS[workload]
    budget = seconds / 2 if trace else seconds
    setup = [] if trace else measure_setup()
    if workload in workloads.IN_PROCESS:
        result = in_process_job(workload, seed, budget, trace)
    else:
        result = cli_job(workload, params, seed, budget, trace)
    walls = [r["wall"] for r in result["reps"]]
    if trace:
        layers = tracer.layer_metrics(result["trace"])
        layers["trace.overhead"] = result["traced_wall"] / median(walls)
        metrics = {name: (value, "traced job") for name, value in layers.items()}
    else:
        metrics = end_to_end(result, setup)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": result["failed"] / result["attempted"],
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "how": {name: how for name, (_, how) in metrics.items()},
        "samples": {"wall_s": walls, "setup_s": setup},
        "trace_totals": result["trace"],
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description="colorcomp benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)

    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        records.append(record)
        for metric, value in record["metrics"].items():
            unit = units.get(metric, "ms" if metric.endswith("_ms") else "")
            print(f"{name:<14} {metric:<32} {value:>14.6g} {unit:<6} {record['how'][metric]}")
        print(f"{name:<14} {'error_rate':<32} {record['error_rate']:>14.6g} ratio  "
              f"{record['failed']} failed of {record['attempted']}")

    OUT.mkdir(exist_ok=True)
    meta = {
        "colorcomp_version": colorcomp.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**meta, "runs": records}, indent=1) + "\n")

    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": record["metrics"][m["name"]], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
