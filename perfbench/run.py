#!/usr/bin/env python3
"""Build and run the HerQules end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <spec-mix|nginx-gate|verify-replay> \
        --seed N --seconds S --trace 0|1 [--smoke]

The first run configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later runs only rebuild what changed. The
benchmark's own output goes to stdout; its last line is the result
object {"correct", "attempted", "failed", "metrics"}. Build logs go to
stderr. Exits non-zero, without a result line, when the build or the
run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("spec-mix", "nginx-gate", "verify-replay")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure once, then build incrementally. Returns the binary."""
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    logs = sys.stderr
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", SOURCE, "-B", out_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        subprocess.run(command, stdout=logs, stderr=logs, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   stdout=logs, stderr=logs, check=True,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "hq_perfbench")


def commit_id():
    """HEAD of the checkout when it is a git work tree, else unknown.
    Reads .git directly so nothing outside the checkout is consulted."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: exercise every path quickly")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--commit", commit_id()]
    if args.trace == "1":
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        command.append("--smoke")

    started = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed (exit {run.returncode})",
              file=sys.stderr)
        return 1
    print(f"# run_s {time.monotonic() - started:.3f}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
