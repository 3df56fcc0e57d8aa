"""Print a markdown table of benchmark results files.

    python3 perfbench/report.py perfbench/baseline/*.json

Untraced runs give one row per workload with every end-to-end metric;
traced runs give one row per workload with each layer's share of the wall
time and the tracing overhead.
"""

from __future__ import annotations

import json
import sys

LAYERS = ("bell", "closedform", "compgen", "codec", "verify", "cli")


def _table(header, rows):
    lines = ["| " + " | ".join(header) + " |", "|" + " --- |" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def main(paths):
    untraced, traced = [], []
    for path in paths:
        with open(path) as fh:
            results = json.load(fh)
        for run in results["runs"]:
            (traced if run["trace"] else untraced).append((results, run))
    if untraced:
        names = [n for n in untraced[0][1]["metrics"] if all(n in run["metrics"] for _, run in untraced)]
        header = ["workload", *names, "error_rate", "seed", "commit"]
        print(_table(header, [
            [run["workload"], *(f"{run['metrics'][n]:.4g}" for n in names),
             f"{run['error_rate']:.3g}", str(run["seed"]), (meta["git_commit"] or "-")[:10]]
            for meta, run in untraced
        ]))
        print()
    if traced:
        header = ["workload", *(f"{layer}.share" for layer in LAYERS), "trace.overhead"]
        print(_table(header, [
            [run["workload"], *(f"{run['metrics'][f'{layer}.share']:.3f}" for layer in LAYERS),
             f"{run['metrics']['trace.overhead']:.2f}"]
            for _, run in traced
        ]))


if __name__ == "__main__":
    main(sys.argv[1:])
