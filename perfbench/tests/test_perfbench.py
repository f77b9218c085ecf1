#!/usr/bin/env python3
"""The benchmark's own tests, at tiny scale for every workload.

Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the traced run's spans nest (children inside parents, self time >= 0), that
the oracle counts a tampered answer as failed (perfbench_selftest), and that
the wrapper fails without a result when the sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)

WORK = os.path.join(".bench_build", "selftest")


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_tiny(workload, trace):
    spans = os.path.join(WORK, f"{workload}-{trace}-spans.json")
    cmd = [run.BINARY, "--workload", workload, "--seed", "3", "--seconds", "0.3",
           "--trace", str(trace), "--scale", "tiny", "--spans", spans,
           "--work-dir", os.path.join(WORK, "work")]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    return res, spans


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build(["pmcf_perfbench", "perfbench_selftest"]):
            raise RuntimeError("perfbench build failed")
        os.makedirs(WORK, exist_ok=True)
        cls.spec = load_spec()

    def test_checkers(self):
        exe = os.path.join(run.BUILD_DIR, "perfbench_selftest")
        res = subprocess.run([exe], capture_output=True, text=True, timeout=120, check=False)
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)

    def test_workload_names_match_spec(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def check_result(self, res, wanted):
        self.assertEqual(res.returncode, 0, res.stderr)
        lines = res.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in wanted})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertIn(f"metric {name} = ", res.stdout)
        return lines

    def check_spans(self, path):
        with open(path) as f:
            doc = json.load(f)
        self.assertIn("nproc", doc["host"])
        spans = {s["id"]: s for s in doc["spans"]}
        self.assertTrue(spans)
        for s in spans.values():
            self.assertGreaterEqual(s["end_us"], s["start_us"], s["name"])
            self.assertGreaterEqual(s["self_us"], -1e-6, s["name"])
            if s["parent"]:
                p = spans[s["parent"]]
                self.assertLessEqual(p["start_us"], s["start_us"], s["name"])
                self.assertGreaterEqual(p["end_us"], s["end_us"], s["name"])
                self.assertEqual(p["request"], s["request"], s["name"])
        roots = [s for s in spans.values() if s["name"] == "request"]
        self.assertTrue(roots)
        for r in roots:
            kids = [s for s in spans.values() if s["parent"] == r["id"]]
            engine = [s for s in kids if s["name"].startswith("engine.")]
            self.assertEqual(len(engine), 1, r)
            self.assertTrue(any(s["name"] == "mcf.solve" for s in kids), r)
            covered = sum(s["end_us"] - s["start_us"] for s in kids)
            self.assertAlmostEqual(r["self_us"], r["end_us"] - r["start_us"] - covered, delta=1.0)

    def test_untraced_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                res, _ = run_tiny(workload, 0)
                lines = self.check_result(res, self.spec["end_to_end"])
                self.assertIn("metric failed_share = 0 share", res.stdout)
                self.assertTrue(any(line.startswith("host {") for line in lines))

    def test_traced_metrics_and_spans(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                res, spans = run_tiny(workload, 1)
                self.check_result(res, self.spec["per_layer"])
                self.check_spans(spans)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            shutil.copy("BENCHMARK.json", tmp)
            shutil.copytree(os.path.dirname(HERE), os.path.join(tmp, "perfbench"))
            cmd = [sys.executable, "perfbench/run.py", "--workload", "cold_reference",
                   "--seed", "1", "--seconds", "1", "--trace", "0"]
            res = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=170,
                                 check=False)
            self.assertNotEqual(res.returncode, 0)
            self.assertEqual(res.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
