#!/usr/bin/env python3
"""Unit tests for tools/check_experiments.py (ctest: tools.check_experiments).

Usage: test_check_experiments.py /path/to/check_experiments.py

The committed EXPERIMENTS.md must pass. A copy with one count cell
changed, or with a gated cell gone, must fail: a drift gate that reads a
wrong or missing number as fine would let the doc drift again.
"""
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = None  # Set from argv in __main__.


def run_check(*args):
    result = subprocess.run([sys.executable, SCRIPT, *map(str, args)],
                            capture_output=True, text=True)
    return result.returncode, result.stdout + result.stderr


class CheckExperimentsTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.doc = (pathlib.Path(SCRIPT).resolve().parent.parent /
                    "EXPERIMENTS.md").read_text()
        self.copy = pathlib.Path(self._tmp.name) / "EXPERIMENTS.md"

    def tearDown(self):
        self._tmp.cleanup()

    def check_edited(self, old, new):
        self.assertIn(old, self.doc)
        self.copy.write_text(self.doc.replace(old, new, 1))
        return run_check(self.copy)

    def test_committed_doc_matches_the_records(self):
        code, output = run_check()
        self.assertEqual(code, 0, output)
        self.assertIn("count cells match the committed records", output)

    def test_wrong_table1_cost_fails(self):
        code, output = self.check_edited("| Cost   | 1.000| 0.920 | 0.925 |",
                                         "| Cost   | 1.000| 0.920 | 0.924 |")
        self.assertEqual(code, 1, output)
        self.assertIn("MISMATCH E1 measured Cost row: e1.AI+RD is 0.924", output)

    def test_wrong_sat_call_total_fails(self):
        code, output = self.check_edited("total calls 9,365 -> 9,163",
                                         "total calls 9,365 -> 9,152")
        self.assertEqual(code, 1, output)
        self.assertIn("e2.simgen_calls is 9,152, the records give 9,163", output)

    def test_missing_cell_fails(self):
        code, output = self.check_edited("cost 0.920 and SAT calls 0.960",
                                         "cost and SAT calls")
        self.assertEqual(code, 1, output)
        self.assertIn("MISSING  e4.calls", output)


if __name__ == "__main__":
    SCRIPT = sys.argv.pop(1)
    unittest.main()
