#!/usr/bin/env python3
"""Tests of compare.py on synthetic result files.

    python3 perfbench/test_compare.py
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "core.map_s", "unit": "s", "better": "lower"},
        {"name": "core.ledger_cells_per_s", "unit": "1/s",
         "better": "higher"},
    ],
}
BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]


def rows_for(base, change, metric="pass_s", workload="w"):
    runs = lambda values: {workload: [{metric: v} for v in values]}
    rows = compare.compare(runs(base), runs(change), SPEC)
    return {(r[0], r[1]): r for r in rows}[(workload, metric)]


class VerdictTest(unittest.TestCase):
    def test_clear_gain_is_improved(self):
        row = rows_for(BASE, [v * 0.8 for v in BASE])
        self.assertEqual(row[-1], "improved")
        self.assertEqual((row[-3], row[-2]), (10, 10))
        self.assertAlmostEqual(row[7], 0.8)

    def test_identical_runs_are_no_worse(self):
        self.assertEqual(rows_for(BASE, BASE)[-1], "no worse")

    def test_slowdown_beyond_bound_is_worse(self):
        self.assertEqual(rows_for(BASE, [v * 1.2 for v in BASE])[-1],
                         "worse")

    def test_slowdown_within_bound_is_no_worse(self):
        self.assertEqual(rows_for(BASE, [v * 1.05 for v in BASE])[-1],
                         "no worse")

    def test_small_gain_inside_spread_is_not_improved(self):
        # Wins every pair, but by less than the base's quartile spread.
        row = rows_for(BASE, [v - 0.05 for v in BASE])
        self.assertEqual(row[-1], "no worse")
        self.assertEqual(row[-3], 10)

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [6.0, 14.0, 7.0, 13.0, 10.0, 8.0, 12.0, 9.0, 11.0, 10.0]
        self.assertEqual(rows_for(noisy, noisy)[-1], "unresolved")

    def test_wide_spread_but_every_change_run_better_is_improved(self):
        noisy = [9.0, 11.0, 9.5, 10.5, 10.0]
        self.assertEqual(rows_for(noisy, [v - 4.0 for v in noisy])[-1],
                         "improved")

    def test_higher_is_better_direction(self):
        rate = [1000.0 + i for i in range(10)]
        row = rows_for(rate, [v * 1.5 for v in rate],
                       metric="core.ledger_cells_per_s")
        self.assertEqual(row[-1], "improved")

    def test_per_layer_consistent_loss_is_worse(self):
        row = rows_for(BASE, [v * 1.3 for v in BASE], metric="core.map_s")
        self.assertEqual(row[-1], "worse")

    def test_per_layer_mixed_shift_is_unresolved(self):
        change = [v + (3.0 if i % 2 else -0.1) for i, v in enumerate(BASE)]
        row = rows_for(BASE, change, metric="core.map_s")
        self.assertEqual(row[-1], "unresolved")

    def test_workloads_are_compared_separately(self):
        base = {"a": [{"pass_s": 1.0}], "b": [{"pass_s": 5.0}]}
        change = {"a": [{"pass_s": 1.0}], "c": [{"pass_s": 5.0}]}
        rows = compare.compare(base, change, SPEC)
        self.assertEqual([(r[0], r[1]) for r in rows], [("a", "pass_s")])


class CommandLineTest(unittest.TestCase):
    def write(self, directory, name, values):
        path = Path(directory) / name
        path.write_text("".join(
            json.dumps({"workload": "w", "seed": i, "correct": True,
                        "attempted": 1, "failed": 0,
                        "metrics": {"pass_cal": {"value": v,
                                                 "unit": "cal"}}})
            + "\n" for i, v in enumerate(values)))
        return str(path)

    def run_compare(self, base, change):
        script = Path(__file__).resolve().parent / "compare.py"
        return subprocess.run([sys.executable, str(script), base, change],
                              capture_output=True, text=True)

    def test_prints_ratio_with_base_and_exit_status(self):
        with tempfile.TemporaryDirectory() as directory:
            base = self.write(directory, "base.jsonl", BASE)
            same = self.run_compare(base, base)
            self.assertEqual(same.returncode, 0, same.stderr)
            self.assertIn("1.0000 of 10 cal", same.stdout)
            slow = self.write(directory, "slow.jsonl",
                              [v * 1.5 for v in BASE])
            worse = self.run_compare(base, slow)
            self.assertEqual(worse.returncode, 1)
            self.assertIn("| worse", worse.stdout)

    def test_rejects_malformed_lines(self):
        with tempfile.TemporaryDirectory() as directory:
            bad = Path(directory) / "bad.jsonl"
            bad.write_text("{not json}\n")
            result = self.run_compare(str(bad), str(bad))
            self.assertNotEqual(result.returncode, 0)
            self.assertIn("bad.jsonl:1", result.stderr)


if __name__ == "__main__":
    unittest.main()
