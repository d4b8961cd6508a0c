#!/usr/bin/env python3
"""Self-test of the benchmark at shrunk sizes (--shrink 50, 1 s per run).

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is printed, with its unit, on
every workload in both modes; that the traced pass writes a well-formed
span tree; and that a corrupted clustering fails the run.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, *extra):
    cmd = [run.BINARY, "--workload", workload, "--seed", "7", "--seconds",
           "1", "--trace", str(trace), "--shrink", "50", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_every_metric_printed_with_its_unit(self):
        for workload in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    rc, result = bench(workload["name"], trace)
                    self.assertEqual(rc, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_trace_is_a_span_tree(self):
        path = os.path.join(run.BUILD, "test_trace.json")
        rc, _ = bench("ss3d-churn", 1, "--trace_out", path)
        self.assertEqual(rc, 0)
        with open(path) as f:
            events = [e for e in json.load(f)["traceEvents"]
                      if e["ph"] == "X"]
        self.assertTrue(events)
        child_us = {}
        for i, e in enumerate(events):
            self.assertEqual(e["args"]["id"], i)
            parent = e["args"]["parent"]
            self.assertLess(parent, i)
            if parent >= 0:
                child_us[parent] = child_us.get(parent, 0.0) + e["dur"]
        for parent, covered in child_us.items():
            self.assertLessEqual(covered, events[parent]["dur"] + 0.01)
        names = {e["name"] for e in events}
        for name in ("replay", "grid.build", "core.border", "sample.assign",
                     "stream.labels", "serve.flush"):
            self.assertIn(name, names)

    def test_corrupted_clustering_fails_the_run(self):
        rc, result = bench("ss3d-batch", 0, "--corrupt")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
