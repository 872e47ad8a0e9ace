#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the bounds are checked.

    python3 perfbench/spread.py --workload brush --runs 10 [--first-seed 1]

Runs the benchmark once per seed (first-seed, first-seed+1, ...) and prints,
for every end-to-end metric of BENCHMARK.json, the median over the runs and
the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of that median, next to the
metric's bound. A spread under a third of the bound is the target.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(opts.first_seed, opts.first_seed + opts.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", opts.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed} failed ({out.returncode}):\n{out.stderr}")
        result = json.loads(lines[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)

    print(f"\n{'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        print(f"{metric['name']:<16} {median:>12.4f} {spread:>8.3f} "
              f"{metric['bound']:>6}")


if __name__ == "__main__":
    main()
