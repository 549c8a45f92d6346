#!/usr/bin/env python3
"""Self-test of the benchmark on its smoke configuration (tiny sizes).

    python3 perfbench/test_bench.py      # from the repository root

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, in a result line that parses; that the traced run reproduces the
untraced physics; that the correctness gate fires on a corrupted digest;
that the seed drives the inputs; and that the command fails without the
simulator sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
# run.py builds the measuring program here (see run.py's build()).
WLBENCH = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench", "wlbench")
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, *extra, seed=9, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    return proc


def digest_of(stdout):
    match = re.search(r"^digest ([0-9a-f]{16})", stdout, re.M)
    return match.group(1) if match else None


class SmokeTest(unittest.TestCase):
    def check_metrics(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            printed = result["metrics"][m["name"]]
            self.assertEqual(printed["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed["value"], (int, float), m["name"])
            if m["unit"] == "s":
                # Every time is measured, even a bypassed layer's dispatch:
                # none may read a constant 0.
                self.assertGreater(printed["value"], 0, m["name"])
            self.assertRegex(proc.stdout, rf"(?m)^metric {re.escape(m['name'])} +\S+ {re.escape(m['unit'])}$")
        return result

    def test_every_workload_prints_every_metric_and_traces_identically(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                untraced = bench(workload, 0)
                self.check_metrics(untraced, SPEC["end_to_end"])
                traced = bench(workload, 1)
                self.check_metrics(traced, SPEC["per_layer"])
                # The traced run fails its own gate when its physics differ
                # from the untraced repetitions it interleaves; both runs
                # must also report the same digest.
                self.assertEqual(digest_of(untraced.stdout), digest_of(traced.stdout))
                self.assertIn("route engine:", untraced.stdout)
                self.assertRegex(untraced.stdout, r"nproc=\d+ hardware_concurrency=\d+")

    def test_gate_fires_on_corrupted_digest(self):
        good = digest_of(bench("mesh_byzantine", 0).stdout)
        self.assertIsNotNone(good)
        corrupted = f"{int(good, 16) ^ 1:016x}"

        def wlbench(trace, digest):
            return subprocess.run(
                [WLBENCH, "--workload", "mesh_byzantine", "--seed", "9", "--seconds", "1",
                 "--trace", str(trace), "--smoke", "--expect-digest", digest],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)

        for trace in (0, 1):
            self.assertEqual(wlbench(trace, good).returncode, 0)
            proc = wlbench(trace, corrupted)
            self.assertNotEqual(proc.returncode, 0)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertFalse(result["correct"])
            self.assertGreater(result["failed"], 0)
            self.assertIn("FAILED", proc.stdout)

    def test_seed_drives_the_inputs(self):
        a = digest_of(bench("paper_sweep", 0, seed=3).stdout)
        b = digest_of(bench("paper_sweep", 0, seed=3).stdout)
        c = digest_of(bench("paper_sweep", 0, seed=4).stdout)
        self.assertIsNotNone(a)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_fails_without_simulator_sources(self):
        build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        bare = os.path.join(build_root, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "mesh_byzantine",
                 "--seed", "9", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
