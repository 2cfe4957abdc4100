#!/usr/bin/env python3
"""Self-test of the sweep benchmark: a tiny-scale run of each workload
prints every metric BENCHMARK.json names, with its unit, and passes the
digest check; a deliberately corrupted record is counted as failed.

    python3 perfbench/test_perfbench.py      # from the repository root
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CLOSURE_TOLERANCE = 0.10  # kClosureTolerance in perfbench/src/pass.cpp


def bench(*args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--scale", "tiny", "--seconds", "1",
         *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class TinyWorkloads(unittest.TestCase):
    def check(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual({name: m["unit"] for name, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in metrics})

    def test_end_to_end_metrics_and_digest(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                result = bench("--workload", workload["name"], "--trace", "0")
                self.check(result, SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_per_layer_metrics(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                result = bench("--workload", workload["name"], "--trace", "1")
                self.check(result, SPEC["per_layer"])
                # The summed layer times account for the serial sweep
                # time within the stated tolerance (run.py also marks a
                # run that misses it as incorrect).
                self.assertLessEqual(result["metrics"]["trace.closure_err"]["value"],
                                     CLOSURE_TOLERANCE)

    def test_other_seed_is_checked_against_its_serial_reference(self):
        result = bench("--workload", "dist_serve_tiny", "--seed", "5", "--trace", "0")
        self.check(result, SPEC["end_to_end"])

    def test_corrupted_record_is_counted_as_failed(self):
        result = bench("--workload", "mw_table2", "--trace", "0", "--corrupt-record")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        traced = bench("--workload", "hagerup_bold", "--trace", "1", "--corrupt-record")
        self.assertFalse(traced["correct"])
        self.assertGreater(traced["metrics"]["failed_frac"]["value"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
