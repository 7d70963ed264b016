#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Uses --smoke inputs, so the whole file takes well under a minute once
the benchmark is built (the first run builds it).
"""

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("spec-mix", "nginx-gate", "verify-replay")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

# Counts the program makes; they must repeat exactly for one seed.
EXACT_COUNTS = ("compiler.msg_sites", "runtime.msgs_per_kitem",
                "kernel.syscalls", "verifier.messages", "policy.entries_max")


def run(workload, seed, trace, seconds=0.5, cwd=ROOT, script=RUN):
    out = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return out


def result(workload, seed, trace):
    out = run(workload, seed, trace)
    if out.returncode != 0:
        raise AssertionError(f"{workload} failed:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    detail = next(json.loads(line[len("# detail "):]) for line in lines
                  if line.startswith("# detail "))
    return json.loads(lines[-1]), detail


def binary():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench", "hq_perfbench")


def draw(seed):
    out = subprocess.run([binary(), "--print-draw", "--seed", str(seed)],
                         capture_output=True, text=True, check=True)
    return [line.split()[1] for line in out.stdout.splitlines()
            if line.startswith("spec-mix ")]


def setUpModule():
    # Build (or rebuild) before tests that call the binary directly.
    result("nginx-gate", 1, 0)


class Smoke(unittest.TestCase):
    def test_every_workload_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res, detail = result(workload, 7, 0)
                self.assertTrue(res["correct"], detail["failures"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(set(res["metrics"]), END_TO_END)
                for name, metric in res["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                env = detail["env"]
                self.assertEqual(env["nproc"], os.cpu_count())
                self.assertTrue(env["crc32"])

    def test_every_workload_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res, detail = result(workload, 7, 1)
                self.assertTrue(res["correct"], detail["failures"])
                self.assertEqual(set(res["metrics"]), PER_LAYER)
                spans = set(detail["spans"])
                for name in ("workloads.build", "compiler.instrument",
                             "runtime.vm_run", "kernel.syscall",
                             "ipc.send_batch", "verifier.poll",
                             "policy.handle"):
                    self.assertIn(name, spans)


class Determinism(unittest.TestCase):
    def test_counts_repeat_for_one_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, _ = result(workload, 3, 1)
                second, _ = result(workload, 3, 1)
                for name in EXACT_COUNTS:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)

    def test_seed_changes_spec_mix_draw(self):
        self.assertEqual(draw(1), draw(1))
        self.assertNotEqual(draw(1), draw(2))
        self.assertIn("h264ref", draw(5))
        for seed in range(1, 20):
            self.assertNotIn("omnetpp", draw(seed))
            self.assertEqual(len(set(draw(seed))), len(draw(seed)))


class Contract(unittest.TestCase):
    def test_fails_without_program_sources(self):
        """Only BENCHMARK.json and perfbench/: no result, non-zero exit."""
        scratch = os.path.join(ROOT, ".bench_build", "test-no-src")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "spec-mix", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=scratch, env=env, capture_output=True,
                text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def test_quartiles_follow_python(self):
        """Reported quartiles match statistics.quantiles(values, n=4)."""
        rng = random.Random(4)
        for n in (2, 3, 4, 5, 9, 10, 31):
            values = [rng.uniform(0.5, 2.0) for _ in range(n)]
            out = subprocess.run(
                [binary(), "--quartiles", *map(repr, values)],
                capture_output=True, text=True, check=True)
            got = [float(v) for v in out.stdout.split()]
            want = statistics.quantiles(values, n=4)
            want[1] = statistics.median(values)
            for g, w in zip(got, want):
                self.assertAlmostEqual(g, w, places=12)


if __name__ == "__main__":
    unittest.main()
