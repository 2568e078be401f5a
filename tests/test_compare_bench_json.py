#!/usr/bin/env python3
"""Unit tests for tools/compare_bench_json.py (ctest: tools.compare_bench).

Usage: test_compare_bench_json.py /path/to/compare_bench_json.py

The gate's whole point is failing loudly when it cannot do its job, so
most cases here are about the error paths: a missing baseline directory,
an empty one, and corrupt files must all exit nonzero with a diagnostic,
never silently pass.
"""
import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = None  # Set from argv in __main__.

CELL = {"benchmark": "alu4", "strategy": "simgen", "cost": 412,
        "sat_calls": 120, "proven": 37, "disproven": 5, "unresolved": 0,
        "sim_seconds": 0.4, "num_threads": 1}


def write_cell(directory, name="BENCH_alu4__simgen.json", **overrides):
    data = dict(CELL)
    data.update(overrides)
    path = pathlib.Path(directory) / name
    path.write_text(json.dumps(data))
    return path


def run_compare(baseline, candidate, *args):
    result = subprocess.run(
        [sys.executable, SCRIPT, str(baseline), str(candidate), *args],
        capture_output=True, text=True)
    return result.returncode, result.stdout + result.stderr


class CompareBenchJsonTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = pathlib.Path(self._tmp.name)
        self.baseline = root / "baseline"
        self.candidate = root / "candidate"
        self.baseline.mkdir()
        self.candidate.mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def test_matching_directories_pass(self):
        write_cell(self.baseline)
        write_cell(self.candidate)
        code, output = run_compare(self.baseline, self.candidate)
        self.assertEqual(code, 0, output)
        self.assertIn("match the baseline", output)

    def test_missing_baseline_dir_fails_with_a_clear_message(self):
        code, output = run_compare(self.baseline / "nope", self.candidate)
        self.assertEqual(code, 1, output)
        self.assertIn("does not exist", output)

    def test_empty_baseline_dir_fails(self):
        # A gate whose baseline glob matches nothing must not "pass".
        write_cell(self.candidate)
        code, output = run_compare(self.baseline, self.candidate)
        self.assertEqual(code, 1, output)
        self.assertIn("no BENCH_", output)

    def test_corrupt_baseline_file_fails(self):
        path = write_cell(self.baseline)
        path.write_text("{not json")
        write_cell(self.candidate)
        code, output = run_compare(self.baseline, self.candidate)
        self.assertEqual(code, 1, output)
        self.assertIn("CORRUPT", output)

    def test_corrupt_candidate_file_fails(self):
        write_cell(self.baseline)
        write_cell(self.candidate).write_text("")
        code, output = run_compare(self.baseline, self.candidate)
        self.assertEqual(code, 1, output)
        self.assertIn("CORRUPT", output)

    def test_missing_candidate_file_fails(self):
        write_cell(self.baseline)
        code, output = run_compare(self.baseline, self.candidate)
        self.assertEqual(code, 1, output)
        self.assertIn("MISSING", output)

    def test_count_mismatch_fails(self):
        write_cell(self.baseline)
        write_cell(self.candidate, sat_calls=220)
        code, output = run_compare(self.baseline, self.candidate)
        self.assertEqual(code, 1, output)
        self.assertIn("MISMATCH", output)
        self.assertIn("sat_calls", output)

    def test_sat_work_counts_gate_exactly(self):
        # One propagation more is a changed solver path, not noise.
        for field in ("sat_conflicts", "sat_propagations", "sat_restarts"):
            with self.subTest(field=field):
                write_cell(self.baseline, **{field: 1000})
                write_cell(self.candidate, **{field: 1001})
                code, output = run_compare(self.baseline, self.candidate)
                self.assertEqual(code, 1, output)
                self.assertIn(f"{field} 1001 vs baseline 1000", output)

    def test_there_is_no_count_tolerance(self):
        # The gate is exact; a tolerance option is a usage error.
        write_cell(self.baseline)
        write_cell(self.candidate, sat_calls=121)
        code, output = run_compare(self.baseline, self.candidate, "--atol", "2")
        self.assertEqual(code, 2, output)
        self.assertIn("unrecognized arguments", output)

    def test_new_observability_fields_do_not_affect_the_gate(self):
        # Runs add wall_seconds / peak_rss_mb / num_threads fields; the
        # committed baselines predate them and must keep gating cleanly.
        write_cell(self.baseline)
        write_cell(self.candidate, wall_seconds=1.5, peak_rss_mb=91.2,
                   num_threads=4)
        code, output = run_compare(self.baseline, self.candidate)
        self.assertEqual(code, 0, output)
        self.assertIn("4 bench threads", output)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit(
            "usage: test_compare_bench_json.py /path/to/compare_bench_json.py")
    SCRIPT = sys.argv.pop(1)
    unittest.main(verbosity=2)
