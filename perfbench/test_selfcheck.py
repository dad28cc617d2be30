#!/usr/bin/env python3
"""Self-check of the benchmark's regression rule.

    python3 perfbench/test_selfcheck.py

A 30 % slowdown injected into the benchmark's own cycle loop (a busy-wait of
0.3 x each cycle's own duration, inside the cycle; the system under
test is untouched) must be flagged by compare.py's rule; an unchanged rerun of
the same seeds must not be. Takes about two minutes: 21 runs of the
steadiest workload at the minimum cycle count. With the machine noise
the README describes (about ±15 % from run to run), `tick_p50_ms` has
a bound of 0.2 so that a 30 % slowdown clears it.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import spread  # noqa: E402

WORKLOAD = "served_tenants"
SEEDS = [101, 102, 103, 104, 105, 106, 107]
SECONDS = 2


class SelfCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = spread.load_benchmark()
        cls.base, cls.delayed, cls.rerun = [], [], []
        # interleaved per seed, so a slow spell of the machine hits all
        # three sides alike
        for seed in SEEDS:
            cls.base.append(spread.run_once(WORKLOAD, seed, SECONDS, 0))
            cls.delayed.append(spread.run_once(WORKLOAD, seed, SECONDS, 0, "0.3"))
            cls.rerun.append(spread.run_once(WORKLOAD, seed, SECONDS, 0))

    def regressions(self, new):
        return compare.regressions({WORKLOAD: self.base}, {WORKLOAD: new}, self.bench)

    def test_runs_are_correct(self):
        for result in self.base + self.delayed + self.rerun:
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)

    def test_injected_slowdown_is_flagged(self):
        flagged = {name for _, name, *_ in self.regressions(self.delayed)}
        self.assertIn("tick_p50_ms", flagged)
        self.assertIn("tick_p99_cpu_ms", flagged)

    def test_unchanged_rerun_is_not_flagged(self):
        self.assertEqual(self.regressions(self.rerun), [])


if __name__ == "__main__":
    unittest.main()
