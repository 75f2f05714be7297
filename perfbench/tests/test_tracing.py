"""Tests of the benchmark's own tracing.

    python3 -m unittest discover -s perfbench/tests

Builds the benchmark (see build.py) and runs TracingParity.scala, which
checks that a fit through the tracing decorator gives the same FeaturePlan
as an untraced Safe.fitLocal.
"""
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import build  # noqa: E402
import run  # noqa: E402


class TracingParityTest(unittest.TestCase):
    def test_traced_fit_gives_the_untraced_plan(self):
        cmd = run.java_cmd(build.build(), "repro.perfbench.TracingParity", [])
        p = subprocess.run(cmd, cwd=build.ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr[-3000:])
        self.assertIn("TracingParity ok", p.stdout)


if __name__ == "__main__":
    unittest.main()
