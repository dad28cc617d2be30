#!/usr/bin/env python3
"""Flag end-to-end regressions between two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result lines as spread.py --out writes them
({"workload", "seed", "result"}). For every workload and end-to-end
metric of BENCHMARK.json, a metric is flagged when the median of NEW
is worse than the median of BASE by more than the metric's bound.
Exits 1 when anything is flagged.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(path):
    """workload -> list of result objects."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                entry = json.loads(line)
                runs.setdefault(entry["workload"], []).append(entry["result"])
    return runs


def worse_by(metric, base, new):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def regressions(base_runs, new_runs, bench):
    """[(workload, metric, base median, new median, worse-by share)] of
    every metric whose median got worse by more than its bound."""
    flagged = []
    for workload in sorted(set(base_runs) & set(new_runs)):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base = statistics.median(r["metrics"][name]["value"] for r in base_runs[workload])
            new = statistics.median(r["metrics"][name]["value"] for r in new_runs[workload])
            share = worse_by(metric, base, new)
            if share > metric["bound"]:
                flagged.append((workload, name, base, new, share))
    return flagged


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench = load_benchmark()
    flagged = regressions(load_runs(sys.argv[1]), load_runs(sys.argv[2]), bench)
    for workload, name, base, new, share in flagged:
        print(f"REGRESSION {workload} {name}: {base:.6g} -> {new:.6g} ({share:+.1%} worse)")
    if not flagged:
        print("no end-to-end metric got worse by more than its bound")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
