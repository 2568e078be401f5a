#!/usr/bin/env python3
"""Unit tests for tools/perf_trend.py (run via ctest as tools.perf_trend).

Usage: test_perf_trend.py /path/to/perf_trend.py

Each case drives the script as a subprocess against a temp directory, the
same way CI does, so the exit-code contract (0 pass / 1 usage / 2
regression) is what is actually asserted.
"""
import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = None  # Set from argv in __main__.


def write_cell(directory, name, wall, **extra):
    data = {"benchmark": name.split("__")[0], "strategy": "simgen",
            "wall_seconds": wall, "sat_calls": 120, "num_threads": 4}
    data.update(extra)
    path = pathlib.Path(directory) / f"BENCH_{name}.json"
    path.write_text(json.dumps(data))
    return path


def run_trend(candidate, trend, *args):
    result = subprocess.run(
        [sys.executable, SCRIPT, str(candidate), "--trend-dir", str(trend),
         *args],
        capture_output=True, text=True)
    return result.returncode, result.stdout + result.stderr


class PerfTrendTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = pathlib.Path(self._tmp.name)
        self.run_dir = root / "run"
        self.trend_dir = root / "trend"
        self.run_dir.mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def history_len(self):
        path = self.trend_dir / "trend.jsonl"
        if not path.exists():
            return 0
        return len([l for l in path.read_text().splitlines() if l.strip()])

    def test_first_run_seeds_the_baseline_and_passes(self):
        write_cell(self.run_dir, "alu4__simgen", wall=1.0)
        code, output = run_trend(self.run_dir, self.trend_dir)
        self.assertEqual(code, 0, output)
        self.assertIn("seeding", output)
        self.assertEqual(self.history_len(), 1)

    def test_identical_rerun_passes_within_the_band(self):
        write_cell(self.run_dir, "alu4__simgen", wall=1.0)
        run_trend(self.run_dir, self.trend_dir)
        code, output = run_trend(self.run_dir, self.trend_dir)
        self.assertEqual(code, 0, output)
        self.assertIn("ok", output)
        self.assertEqual(self.history_len(), 2)

    def test_injected_wall_regression_fails_and_is_not_recorded(self):
        # +20% on a 10 s cell clears the 15% band plus the 0.05 s
        # absolute slack — the acceptance scenario for the CI leg.
        write_cell(self.run_dir, "alu4__simgen", wall=10.0)
        run_trend(self.run_dir, self.trend_dir)
        write_cell(self.run_dir, "alu4__simgen", wall=12.0)
        code, output = run_trend(self.run_dir, self.trend_dir)
        self.assertEqual(code, 2, output)
        self.assertIn("REGRESSION", output)
        self.assertEqual(self.history_len(), 1,
                         "a regressed run must not poison the baseline")

    def test_getting_faster_is_never_a_failure(self):
        write_cell(self.run_dir, "alu4__simgen", wall=1.0)
        run_trend(self.run_dir, self.trend_dir)
        write_cell(self.run_dir, "alu4__simgen", wall=0.5)
        code, output = run_trend(self.run_dir, self.trend_dir)
        self.assertEqual(code, 0, output)

    def test_missing_candidate_dir_is_a_usage_error(self):
        code, output = run_trend(self.run_dir / "nope", self.trend_dir)
        self.assertEqual(code, 1, output)
        self.assertIn("does not exist", output)

    def test_empty_candidate_dir_is_a_usage_error(self):
        code, output = run_trend(self.run_dir, self.trend_dir)
        self.assertEqual(code, 1, output)
        self.assertIn("no BENCH_", output)

    def test_no_append_leaves_the_history_untouched(self):
        write_cell(self.run_dir, "alu4__simgen", wall=1.0)
        run_trend(self.run_dir, self.trend_dir)
        code, output = run_trend(self.run_dir, self.trend_dir, "--no-append")
        self.assertEqual(code, 0, output)
        self.assertEqual(self.history_len(), 1)

    def test_gate_field_regression_fails(self):
        # The generic --gate flag is how CI watches sat_seconds; a
        # +125% jump clears the default 15% band plus 0.05 absolute slack.
        write_cell(self.run_dir, "alu4__simgen", wall=1.0,
                   sat_seconds=0.4)
        run_trend(self.run_dir, self.trend_dir, "--gate", "sat_seconds")
        write_cell(self.run_dir, "alu4__simgen", wall=1.0,
                   sat_seconds=0.9)
        code, output = run_trend(self.run_dir, self.trend_dir,
                                 "--gate", "sat_seconds")
        self.assertEqual(code, 2, output)
        self.assertIn("REGRESSION", output)
        self.assertIn("sat_seconds", output)
        self.assertEqual(self.history_len(), 1,
                         "a regressed run must not poison the baseline")

    def test_gate_with_custom_band_and_atol(self):
        write_cell(self.run_dir, "alu4__simgen", wall=1.0,
                   sat_seconds=1.0)
        run_trend(self.run_dir, self.trend_dir,
                  "--gate", "sat_seconds:0.5:0.0")
        # +40% sits inside the widened 50% band.
        write_cell(self.run_dir, "alu4__simgen", wall=1.0,
                   sat_seconds=1.4)
        code, output = run_trend(self.run_dir, self.trend_dir,
                                 "--gate", "sat_seconds:0.5:0.0")
        self.assertEqual(code, 0, output)

    def test_gate_skips_field_absent_from_this_run(self):
        # Replaying an old run (no sat_seconds in the json) under a
        # gated invocation must skip the gate with a notice, not error.
        write_cell(self.run_dir, "alu4__simgen", wall=1.0)
        run_trend(self.run_dir, self.trend_dir)
        code, output = run_trend(self.run_dir, self.trend_dir,
                                 "--gate", "sat_seconds")
        self.assertEqual(code, 0, output)
        self.assertIn("gate skipped", output)

    def test_gate_skips_when_history_predates_the_field(self):
        # History rows without the field give no baseline; the gate skips
        # until enough runs have recorded it.
        write_cell(self.run_dir, "alu4__simgen", wall=1.0)
        run_trend(self.run_dir, self.trend_dir)
        write_cell(self.run_dir, "alu4__simgen", wall=1.0,
                   sat_seconds=0.4)
        code, output = run_trend(self.run_dir, self.trend_dir,
                                 "--gate", "sat_seconds")
        self.assertEqual(code, 0, output)
        self.assertIn("gate skipped", output)
        # The run itself recorded the field, so the next one gates.
        code, output = run_trend(self.run_dir, self.trend_dir,
                                 "--gate", "sat_seconds")
        self.assertEqual(code, 0, output)
        self.assertIn("ok", output)
        self.assertIn("sat_seconds", output)

    def test_bad_gate_spec_is_a_usage_error(self):
        write_cell(self.run_dir, "alu4__simgen", wall=1.0)
        code, output = run_trend(self.run_dir, self.trend_dir,
                                 "--gate", "a:b:c:d")
        self.assertNotEqual(code, 0)
        self.assertIn("bad --gate spec", output)
        code, output = run_trend(self.run_dir, self.trend_dir,
                                 "--gate", "sat_seconds:not_a_number")
        self.assertNotEqual(code, 0)
        self.assertIn("bad --gate spec", output)

    def test_rolling_median_absorbs_one_noisy_run(self):
        write_cell(self.run_dir, "alu4__simgen", wall=1.0)
        for _ in range(3):
            run_trend(self.run_dir, self.trend_dir)
        # One fast outlier recorded...
        write_cell(self.run_dir, "alu4__simgen", wall=0.2)
        run_trend(self.run_dir, self.trend_dir)
        # ...must not make a normal run look like a regression.
        write_cell(self.run_dir, "alu4__simgen", wall=1.02)
        code, output = run_trend(self.run_dir, self.trend_dir)
        self.assertEqual(code, 0, output)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit("usage: test_perf_trend.py /path/to/perf_trend.py")
    SCRIPT = sys.argv.pop(1)
    unittest.main(verbosity=2)
