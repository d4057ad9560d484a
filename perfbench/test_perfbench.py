#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the repository root (builds the driver on first use):

    python3 perfbench/test_perfbench.py

- BENCHMARK.json keeps to the benchmark contract, and every metric it
  names is one the driver prints, with the same unit.
- A tiny-size smoke run of every workload, untraced and traced, passes
  the driver's correctness checks (oracle scoring, finite answers,
  identical work on every repeat of a seed) and prints exactly the
  metrics BENCHMARK.json lists.
- The same seed reproduces the same work and the same deterministic
  metrics.
- Without the library sources, run.py exits non-zero and prints no
  result.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Metrics fixed by the work a seed does (no clock involved).
DETERMINISTIC = ("msgs_per_tick", "coverage", "within_tol_frac",
                 "answered_tick_frac", "undegraded_tick_frac")


def run(workload, trace, seed=3, cwd=ROOT, runner=RUN):
    proc = subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--size",
         "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


class ContractTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["command"][1], "perfbench/run.py")
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        meta = json.loads(lines[-2])["meta"]
        self.assertEqual(meta["workload"], workload)
        for key in ("build_type", "compiler", "nproc", "seed", "config"):
            self.assertIn(key, meta)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in table})
        for m in table:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return meta, result

    def test_every_workload_untraced_and_traced(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)
            out = ROOT / ".bench_out" / w["name"]
            for name in ("spans.json", "profile.json", "layers.txt"):
                self.assertTrue((out / name).is_file(), out / name)
            spans = json.loads((out / "spans.json").read_text())["spans"]
            self.assertTrue(spans)
            self.assertTrue(all(s["end_ns"] >= s["start_ns"] for s in spans))

    def test_same_seed_same_work(self):
        workload = SPEC["workloads"][0]["name"]
        meta_a, result_a = self.check(workload, 0)
        meta_b, result_b = self.check(workload, 0)
        self.assertEqual(meta_a["work_per_cycle"], meta_b["work_per_cycle"])
        for name in DETERMINISTIC:
            self.assertEqual(result_a["metrics"][name]["value"],
                             result_b["metrics"][name]["value"], name)


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path)
            runner = Path(tmp) / "perfbench" / "run.py"
            proc = run(SPEC["workloads"][0]["name"], 0, cwd=tmp,
                       runner=runner)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
