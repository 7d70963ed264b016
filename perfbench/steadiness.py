#!/usr/bin/env python3
"""Check that the benchmark is steady across seeds.

Runs every workload (or the ones named) N times with seeds 1..N, then
prints, for each end-to-end metric, the median and the spread: the
distance between the first and third quartile of the N values, as
statistics.quantiles(values, n=4) gives them, as a share of the median.
A spread at or above the metric's bound in BENCHMARK.json is flagged.

    python3 perfbench/steadiness.py [--runs 10] [--seconds S] [workload...]

--json FILE also writes every run's result for later comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--json", help="write all results to this file")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    steady = True
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.monotonic()
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, spec["command"][1]),
                 "--workload", workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n"
                      f"{out.stderr[-2000:]}")
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            results.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed} ({time.monotonic() - started:.0f}"
                  f" s): correct={result['correct']} attempted="
                  f"{result['attempted']} failed={result['failed']}",
                  flush=True)
            steady &= result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, series in values.items():
            mid = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / mid
            flag = ""
            if name != "setup_s" and spread >= bounds[name]:
                flag = "  OVER BOUND"
                steady = False
            elif name != "setup_s" and spread >= bounds[name] / 3:
                flag = "  over a third of the bound"
            print(f"  {name:22s} median {mid:12.5g}  spread {spread:6.3f}"
                  f"  bound {bounds[name]:.2f}{flag}", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
