#!/usr/bin/env python3
"""Smoke tests of the benchmark: every workload at tiny size, both modes.

Run from the repository root:

    python3 perfbench/test_smoke.py

Each workload runs through run.py with --smoke (small inputs) for a few
seconds, untraced and traced. The tests check that the run passes its own
correctness gate and prints exactly the metrics BENCHMARK.json names, each
with its unit, and that the workload list and the seeds recorded in
BENCHMARK.json agree with workloads.json. The first test builds the driver,
so allow a few minutes on a fresh checkout.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCH = json.load(handle)
with open(os.path.join(HERE, "workloads.json")) as handle:
    WORKLOADS = json.load(handle)


def run_smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "6", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return done


class SmokeTest(unittest.TestCase):

    def check(self, workload, trace):
        done = run_smoke(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-4000:])
        result = json.loads(done.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"],
                        done.stdout[-3000:] + done.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            self.assertEqual(result["metrics"][metric["name"]]["unit"],
                             metric["unit"], metric["name"])
        self.assertIn("host: {", done.stdout)
        return result

    def test_workloads_match(self):
        names = [w["name"] for w in BENCH["workloads"]]
        self.assertEqual(names, list(WORKLOADS["workloads"]))
        for workload in BENCH["workloads"]:
            params = WORKLOADS["workloads"][workload["name"]]
            self.assertIn("/%d rps" % params["hi-rps"], workload["why"])
            seeds = "Seeds %d default, %d held-out" % (
                WORKLOADS["default_seed"], WORKLOADS["heldout_seed"])
            self.assertIn(seeds, workload["why"])

    def test_end_to_end_metrics_are_positive(self):
        for workload in WORKLOADS["workloads"]:
            with self.subTest(workload=workload):
                result = self.check(workload, 0)
                for name, entry in result["metrics"].items():
                    self.assertGreater(entry["value"], 0, name)

    def test_traced_run_prints_every_layer(self):
        for workload in WORKLOADS["workloads"]:
            with self.subTest(workload=workload):
                self.check(workload, 1)

    def test_refuses_without_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark: the
        # run must fail without printing a result.
        build_dir = os.path.join(
            ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        os.makedirs(build_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "serve_stream_gauss2d", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertIsNone(re.search(r'"correct"', done.stdout))


if __name__ == "__main__":
    unittest.main()
