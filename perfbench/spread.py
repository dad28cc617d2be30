#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--seconds S]
                                [--trace 0] [workload ...]

For every end-to-end metric of BENCHMARK.json this prints the median
over the seeds, the quartiles, and the spread (third minus first
quartile, as a share of the median) next to the metric's bound. A
spread wider than a third of its bound is marked; `setup_s` is exempt,
like in the acceptance rule. Save the printed JSON lines with --out
and compare two such files with compare.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, delay="0"):
    """One benchmark run; returns its parsed result line."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--inject-delay", str(delay)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", help="append every result line (tagged) to this file")
    args = parser.parse_args()

    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    ok = True
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            results.append(result)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
        print(f"== {workload} ({len(results)} seeds, {args.seconds} s)")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3, s = spread(values)
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and s > bound / 3:
                flag = "  <-- above a third of the bound"
                ok = False
            bound_txt = f"bound {bound:.3f}" if bound is not None else ""
            print(f"  {m['name']:<34} median {med:>14.6g}  q1 {q1:>12.6g}  q3 {q3:>12.6g}"
                  f"  spread {s:7.4f}  {bound_txt}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
