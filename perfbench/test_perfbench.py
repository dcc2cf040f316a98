#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness gate.

Run from the repository root:  python3 perfbench/test_perfbench.py

Each corruption test makes one check's expected value wrong (run.py
--corrupt NAME) and asserts that the command then exits non-zero, reports
correct=false and names that check as failed. The clean test asserts that
the same command passes uncorrupted, and the last test that run.py fails
without printing a result when the simulator sources are absent.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "0.2"]


def run(workload, *extra, cwd=ROOT):
    proc = subprocess.run(RUN + ["--workload", workload, *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class CorruptedCheckFailsTheCommand(unittest.TestCase):
    def assert_fails(self, workload, check, trace="0"):
        proc = run(workload, "--trace", trace, "--corrupt", check)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertFalse(last_json(proc)["correct"])
        self.assertIn(f"check {check} failed", proc.stderr)

    def test_clean_run_passes(self):
        proc = run("fig6_io")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = last_json(proc)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})

    def test_runs_failed(self):
        self.assert_fails("fig6_io", "runs_failed")

    def test_callback_spills(self):
        self.assert_fails("fig6_io", "callback_spills")

    def test_paratick_le_dynticks(self):
        self.assert_fails("fig6_io", "paratick_le_dynticks")

    def test_cycle_conservation(self):
        self.assert_fails("fig6_io", "cycle_conservation")

    def test_export_repeatable(self):
        self.assert_fails("fig6_io", "export_repeatable")

    def test_export_matches_driver(self):
        self.assert_fails("fig6_io", "export_matches_driver")

    def test_export_traced_equal(self):
        self.assert_fails("fig6_io", "export_traced_equal", trace="1")

    def test_table1_periodic(self):
        self.assert_fails("table1_ticks", "table1_periodic")


class MissingSourcesFail(unittest.TestCase):
    def test_benchmark_alone_exits_nonzero_without_result(self):
        scratch = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        scratch.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("fig6_io", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
