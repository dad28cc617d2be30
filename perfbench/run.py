#!/usr/bin/env python3
"""Build the benchmark program and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then replaces this process with it.
`policy_churn` and `served_tenants` are confined to one CPU: unconfined,
their medians swing with cross-core wake-ups (see README.md). Exits
non-zero without a result when the repository's crates are missing.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# workload -> run confined to one CPU?
WORKLOADS = {"paper_stream": True, "policy_churn": True, "served_tenants": True}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--inject-delay", default="0",
                        help="busy-wait this share of each cycle on top of it (self-check only)")
    args = parser.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        sys.exit("perfbench: the repository's crates are missing; nothing to build")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # the workloads fix their own thread and shard counts
    for knob in ("PARADISE_THREADS", "PARADISE_SHARDS"):
        env.pop(knob, None)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed ({build.returncode})")

    binary = os.path.join(target, "release", "paradise-perfbench")
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--inject-delay", args.inject_delay,
            "--out-dir", os.path.join(target, "perfbench")]
    if WORKLOADS[args.workload]:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.stdout.flush()
    os.execve(binary, argv, env)


if __name__ == "__main__":
    main()
