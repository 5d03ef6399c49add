"""Tiny-size self-test of the benchmark itself.

Usage (from the repository root): ``python3 perfbench/selftest.py``.

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit on every workload, in both the untraced and the traced run; that a
restore of damaged stored data counts as a failed operation; and that the
benchmark fails without printing a result when the program is absent.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def run(*extra: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "3",
         "--seconds", "0.5", "--scale", "tiny", "--setup-samples", "1", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


class MetricsEmitted(unittest.TestCase):
    def check(self, trace: str, catalogue: list) -> None:
        for workload in BENCHMARK["workloads"]:
            with self.subTest(workload=workload["name"], trace=trace):
                done = run("--workload", workload["name"], "--trace", trace)
                self.assertEqual(done.returncode, 0, done.stderr)
                result = result_of(done)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], done.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                emitted = {
                    name: metric["unit"] for name, metric in result["metrics"].items()
                }
                self.assertEqual(emitted, {entry["name"]: entry["unit"] for entry in catalogue})
                for metric in result["metrics"].values():
                    self.assertIsInstance(metric["value"], (int, float))

    def test_end_to_end_metrics(self) -> None:
        self.check("0", BENCHMARK["end_to_end"])

    def test_per_layer_metrics(self) -> None:
        self.check("1", BENCHMARK["per_layer"])


class FailureAccounting(unittest.TestCase):
    def test_corrupted_restore_is_a_failed_operation(self) -> None:
        done = run("--workload", "fresh-gear", "--trace", "0", "--corrupt")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = result_of(done)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("differs from its input", done.stderr)

    def test_fails_without_the_program(self) -> None:
        bare = os.path.join(HERE, ".work", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            done = run("--workload", "fresh-gear", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
