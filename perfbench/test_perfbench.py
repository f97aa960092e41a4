#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-scale smoke of every workload.

    python3 perfbench/test_perfbench.py

Each workload runs through perfbench/run.py with --smoke (tiny graphs) in
both modes. The tests check that every metric BENCHMARK.json names is
printed with its unit, that the oracle gate passed, that the provenance
line is there, that sim_cycles repeats exactly where the benchmark
promises it does, and that the benchmark refuses to run without the
library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["pagerank_hub", "query_stream", "live_updates"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed=1, trace=0, seconds=2, cwd=ROOT, runner=RUN):
    proc = subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, "no output; stderr:\n" + proc.stderr
    return json.loads(lines[-1]), lines


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run(workload, trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res, lines = result(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"], proc.stderr)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        key = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in spec()[key]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in res["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        self.assertTrue(lines[-2].startswith("provenance "))
        prov = json.loads(lines[-2][len("provenance "):])
        for field in ("nproc", "build_type", "compiler", "vertices", "edges",
                      "paths", "partitions"):
            self.assertIn(field, prov)
        return res

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = self.check_run(w, 0)
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = self.check_run(w, 1)
                self.assertGreater(
                    res["metrics"]["trace.overhead_ratio"]["value"], 0)

    def test_sim_cycles_repeat(self):
        # pagerank has no source and query_stream runs a fixed job
        # multiset, so even another seed gives the same simulated time.
        for w in ("pagerank_hub", "query_stream"):
            with self.subTest(workload=w):
                cycles = []
                for seed in (1, 1, 2):
                    proc = run(w, seed=seed)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    cycles.append(
                        result(proc)[0]["metrics"]["sim_cycles"]["value"])
                self.assertEqual(len(set(cycles)), 1, cycles)

    def test_refuses_without_sources(self):
        build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                                  or ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        lone = tempfile.mkdtemp(prefix="lone-", dir=build_root)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
            shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "pagerank_hub", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=lone, capture_output=True, text=True, timeout=180,
                env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
