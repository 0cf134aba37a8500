#!/usr/bin/env python3
"""Quick-mode test of the system benchmark.

Runs every workload of BENCHMARK.json on tiny inputs (one cycle), untraced
and traced, and asserts that each run passes its output checks and prints
exactly the end-to-end (untraced) or per-layer (traced) metrics that
BENCHMARK.json names, with their units. Run from the repository root:

    python3 perfbench/test_quick.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class QuickModeTest(unittest.TestCase):
    spec = load_spec()

    def run_bench(self, workload, trace):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "1", "--trace", str(trace),
               "--quick"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        self.assertEqual(done.returncode, 0, done.stdout)
        return done.stdout, json.loads(done.stdout.rstrip("\n").split("\n")[-1])

    def check(self, trace, expected):
        for workload in self.spec["workloads"]:
            with self.subTest(workload=workload["name"], trace=trace):
                out, result = self.run_bench(workload["name"], trace)
                self.assertTrue(result["correct"], out)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(units, {m["name"]: m["unit"] for m in expected})
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)
                if trace:
                    self.assertIn("contrast:", out)
                    self.assertIn("(unattributed)", out)

    def test_end_to_end_metrics(self):
        self.check(0, self.spec["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, self.spec["per_layer"])


if __name__ == "__main__":
    unittest.main()
