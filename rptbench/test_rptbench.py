#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-size run of every workload, untraced and
traced, and one negative check per correctness gate showing the gate fails
loudly. Run from the root of a checkout:

    python3 rptbench/test_rptbench.py

Each case drives rptbench/run.py exactly as a benchmark run does, with
--scale tiny (instances that finish in seconds) and, for the negative checks,
--corrupt GATE, which damages one output right before that gate's compare.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_PY = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Gate name -> workload whose run checks it.
GATES = {
    "serve-follower-hash": "serve-mixed",
    "serve-validate": "serve-mixed",
    "serve-tcp-sweep": "serve-mixed",
    "shard-oracle": "shard-solve",
    "paper-validate": "paper-solve",
    "paper-bin-vs-dp": "paper-solve",
}


def run(workload, trace=0, corrupt=None, cwd=ROOT, script=RUN_PY):
    command = [sys.executable, script, "--workload", workload, "--seed", "5",
               "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    if corrupt:
        command += ["--corrupt", corrupt]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


class TinyRuns(unittest.TestCase):
    def check_result_line(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(names))
        return result

    def test_untraced_runs_report_every_end_to_end_metric(self):
        for workload in GATES.values():
            with self.subTest(workload=workload):
                result = self.check_result_line(
                    run(workload), [m["name"] for m in SPEC["end_to_end"]])
                for entry in SPEC["end_to_end"]:
                    metric = result["metrics"][entry["name"]]
                    self.assertEqual(metric["unit"], entry["unit"])
                    self.assertGreater(metric["value"], 0, entry["name"])

    def test_traced_runs_report_every_per_layer_metric(self):
        for workload in sorted(set(GATES.values())):
            with self.subTest(workload=workload):
                result = self.check_result_line(
                    run(workload, trace=1), [m["name"] for m in SPEC["per_layer"]])
                self.assertGreater(result["metrics"]["trace.spans"]["value"], 0)


class GatesFailLoudly(unittest.TestCase):
    def test_each_corrupted_gate_fails_the_run(self):
        for gate, workload in GATES.items():
            with self.subTest(gate=gate):
                proc = run(workload, corrupt=gate)
                self.assertEqual(proc.returncode, 1, proc.stderr[-2000:])
                self.assertIn("CORRECTNESS GATE FAILED: " + gate, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])

    def test_unknown_gate_name_is_refused(self):
        proc = run("paper-solve", corrupt="no-such-gate")
        self.assertEqual(proc.returncode, 2)


class NoSourceTree(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        # A directory holding only BENCHMARK.json and the benchmark's files.
        bare = os.path.join(ROOT, ".bench_build", "test-bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "rptbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, os.path.join("rptbench", "run.py"), "--workload",
                 "paper-solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
