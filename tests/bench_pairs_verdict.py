#!/usr/bin/env python3
"""The claim verdict of tools/bench_pairs.py on synthetic pairs.

  python3 tests/bench_pairs_verdict.py

Reads the end-to-end metrics from the repository's BENCHMARK.json. Uses the
standard library only.
"""
import json
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402

SPECS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
PARENT_WALL = [2.78, 2.80, 2.81, 2.79, 2.90, 2.85, 2.83, 2.95, 2.82, 2.88]


def metrics(change_wall, parent_wall=PARENT_WALL, scale=None):
    """A report's metrics: wall_s as given, every other metric equal on both
    sides unless `scale` maps its name to the change/parent ratio."""
    scale = scale or {}
    out = {}
    for spec in SPECS:
        name = spec["name"]
        if name == "wall_s":
            pairs = list(zip(parent_wall, change_wall))
        else:
            base = [1.0 + 0.01 * i for i in range(len(parent_wall))]
            pairs = [(b, b * scale.get(name, 1.0)) for b in base]
        out[name] = bench_pairs.summary(spec, pairs)
    return out


def failed_checks(result):
    return [c["check"] for c in result["checks"] if not c["passed"]]


class Verdict(unittest.TestCase):
    def test_nine_of_ten_wins_with_a_clear_gap_passes(self):
        change = [0.75 * p for p in PARENT_WALL]
        change[3] = 2.95  # one pair lost
        result = bench_pairs.verdict("wall_s", metrics(change), True)
        self.assertTrue(result["passed"], result)
        self.assertEqual(failed_checks(result), [])

    def test_eight_of_ten_wins_fails(self):
        change = [0.75 * p for p in PARENT_WALL]
        change[3] = change[5] = 3.0
        result = bench_pairs.verdict("wall_s", metrics(change), True)
        self.assertFalse(result["passed"])
        self.assertEqual(failed_checks(result), ["wins"])

    def test_a_gap_inside_the_quartile_spread_fails(self):
        parent = [1.0 + 0.2 * i for i in range(10)]
        change = [p - 0.01 for p in parent]  # wins every pair by a hair
        result = bench_pairs.verdict("wall_s", metrics(change, parent), True)
        self.assertFalse(result["passed"])
        self.assertEqual(failed_checks(result), ["gap"])

    def test_another_metric_past_its_bound_fails(self):
        change = [0.75 * p for p in PARENT_WALL]
        result = bench_pairs.verdict("wall_s", metrics(change, scale={"peak_rss_mb": 1.3}), True)
        self.assertFalse(result["passed"])
        self.assertEqual(failed_checks(result), ["bound peak_rss_mb"])
        # Inside the bound it passes; a higher-is-better metric counts a drop.
        self.assertTrue(bench_pairs.verdict(
            "wall_s", metrics(change, scale={"peak_rss_mb": 1.1}), True)["passed"])
        result = bench_pairs.verdict("wall_s", metrics(change, scale={"ok_frac": 0.9}), True)
        self.assertEqual(failed_checks(result), ["bound ok_frac"])

    def test_an_incorrect_run_fails(self):
        change = [0.75 * p for p in PARENT_WALL]
        result = bench_pairs.verdict("wall_s", metrics(change), False)
        self.assertEqual(failed_checks(result), ["correct"])


if __name__ == "__main__":
    unittest.main()
