"""Child process of the benchmark: runs one workload and prints one JSON line.

    python3 perfbench/child.py --workload count-mix --seed 1 --seconds 10 [--trace]
    python3 perfbench/child.py --trace-cli enumerate-map 1

The first form repeats an in-process job while the next one still fits in
``--seconds``, reads its own peak memory, and only then checks the outputs.
With ``--trace`` it runs the job once more under the tracer.  The second form
runs the workload's command as ``colorcomp.cli.main(argv)`` under the
tracer, with stdout captured, and then checks what it printed.
``colorcomp`` must be importable (the benchmark sets PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from time import perf_counter

import workloads
from colorcomp import cli
from tracer import Tracer


def _peak_rss_kb():
    """This process's own peak resident memory (VmHWM).

    getrusage's ru_maxrss would also count the memory of the process this
    one was forked from.
    """
    with open("/proc/self/status") as status:
        return int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))


def in_process(workload, seed, seconds, trace):
    ops = workloads.OPS[workload](seed, workloads.PARAMS[workload])
    reps, first = [], None
    same = [0] * len(ops)  # later repetitions whose output equals the first one's
    later_bad = 0  # failed outputs of later repetitions that differ from the first

    def compare(outs):
        nonlocal later_bad
        for i, (op, out) in enumerate(zip(ops, outs)):
            if out == first[i]:
                same[i] += 1
            elif not workloads.passes(op, out):
                later_bad += 1

    start = perf_counter()
    while True:
        wall, latencies, outs = workloads.run_job(ops)
        reps.append({"wall": wall, "latencies": latencies, "ops": len(ops)})
        if first is None:
            first = outs
        else:
            compare(outs)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(reps) > seconds:  # the next job would overrun
            break
    peak_kb = _peak_rss_kb()
    runs = len(reps)
    dump = None
    if trace:
        with Tracer() as tracer:
            wall, _, outs = workloads.run_job(ops)
        dump = tracer.dump(wall)
        compare(outs)
        runs += 1
    failed = later_bad + sum(
        1 + n for op, out, n in zip(ops, first, same) if not workloads.passes(op, out)
    )
    return {
        "reps": reps,
        "classes": [op.klass for op in ops],
        "peak_rss_kb": peak_kb,
        "attempted": len(ops) * runs,
        "failed": failed,
        "trace": dump,
    }


def traced_cli(workload, seed):
    params = workloads.PARAMS[workload]
    captured = io.StringIO()
    with Tracer() as tracer, contextlib.redirect_stdout(captured):
        start = perf_counter()
        try:
            code = cli.main(workloads.cli_argv(workload, params))
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        wall = perf_counter() - start
    text = captured.getvalue()
    tracer.counters["cli.rows_out"] = text.count("\n")
    tracer.counters["cli.bytes_out"] = len(text.encode())
    return {
        "failed": workloads.check_cli(workload, text, code, params, seed),
        "trace": tracer.dump(wall),
    }


def main():
    if sys.argv[1:2] == ["--trace-cli"]:
        result = traced_cli(sys.argv[2], int(sys.argv[3]))
    else:
        parser = argparse.ArgumentParser()
        parser.add_argument("--workload", required=True, choices=workloads.IN_PROCESS)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, required=True)
        parser.add_argument("--trace", action="store_true")
        args = parser.parse_args()
        result = in_process(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
