#!/usr/bin/env python3
"""Tests that perfbench/run.py fails loudly on bad usage, before it builds.

Run from the root of a checkout:

    python3 perfbench/test_run.py
"""

import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A build directory these tests must never create.
UNUSED_BUILD = ".bench_build_usage_test"


def run(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=UNUSED_BUILD)
    return subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)


class UsageTest(unittest.TestCase):
    def tearDown(self):
        self.assertFalse(os.path.exists(os.path.join(ROOT, UNUSED_BUILD)),
                         "bad usage must not start a build")

    def test_help_prints_usage_and_exits_zero(self):
        done = run("--help")
        self.assertEqual(done.returncode, 0)
        self.assertIn("--workload", done.stdout)

    def test_unknown_workload_exits_two(self):
        self.assertEqual(run("--workload", "nope").returncode, 2)

    def test_unknown_flag_exits_two(self):
        self.assertEqual(run("--workload", "paper_grid", "--bogus", "1").returncode, 2)

    def test_missing_workload_exits_two(self):
        self.assertEqual(run().returncode, 2)

    def test_out_of_range_values_exit_two(self):
        for args in (("--trace", "2"), ("--seconds", "0"), ("--seed", "-1")):
            with self.subTest(args=args):
                self.assertEqual(run("--workload", "paper_grid", *args).returncode, 2)


if __name__ == "__main__":
    unittest.main()
