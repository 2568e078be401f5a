#!/usr/bin/env python3
"""Perf-trend radar over per-run BENCH_*.json files.

Usage:
  perf_trend.py CANDIDATE_DIR --trend-dir bench/trend [options]

Reads every BENCH_<benchmark>__<strategy>.json produced by a bench run
(CANDIDATE_DIR), compares its wall_seconds (and any --gate fields) against
a rolling baseline kept in <trend-dir>/trend.jsonl, and then appends the
run to the history. The baseline for each (cell, metric) is the median of
the last --window runs that recorded that cell, so one noisy run never
poisons the gate and genuine drift moves the baseline slowly.

A cell regresses when
  * wall_seconds  > median * (1 + --band) + --atol-seconds, or
  * any --gate FIELD[:BAND[:ATOL]] field exceeds its own
    median * (1 + BAND) + ATOL (BAND/ATOL default to --band and
    --atol-seconds). --gate is repeatable and works for any numeric
    BENCH_*.json field where higher is worse — CI uses it to watch
    sat_seconds. A gate whose field is missing from this run's
    JSON, or absent from every history row in the window (history
    predating the field), is skipped with a printed notice, never an
    error.

Getting faster is never a failure. With no usable history the run seeds
the baseline and passes. A regressed run is NOT appended to the history
(it would drag the rolling median toward the regression); pass
--append-always to record it anyway.

Exit codes: 0 = within the noise band (history updated), 1 = usage or
I/O error (missing candidate dir, unreadable history), 2 = regression.
"""
import argparse
import json
import statistics
import sys
import time
from pathlib import Path

WALL_KEY = "wall_seconds"
# Carried into the history for context but never gated (counts are
# compare_bench_json.py's job; RSS is informational).
EXTRA_KEYS = ("peak_rss_mb", "sat_calls", "num_threads")


def load_cells(candidate_dir, gate_fields=()):
    """Maps 'benchmark__strategy' -> recorded metrics for one run."""
    cells = {}
    for path in sorted(candidate_dir.glob("BENCH_*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise SystemExit(f"error: cannot read {path}: {error}")
        name = path.stem[len("BENCH_"):]
        cell = {}
        for key in (WALL_KEY,) + EXTRA_KEYS + tuple(gate_fields):
            if key in data:
                cell[key] = data[key]
        cells[name] = cell
    return cells


def parse_gate(spec, default_band, default_atol):
    """'FIELD[:BAND[:ATOL]]' -> (field, band, atol)."""
    parts = spec.split(":")
    if len(parts) > 3 or not parts[0]:
        raise SystemExit(f"error: bad --gate spec '{spec}' "
                         f"(want FIELD[:BAND[:ATOL]])")
    band, atol = default_band, default_atol
    try:
        if len(parts) > 1 and parts[1]:
            band = float(parts[1])
        if len(parts) > 2 and parts[2]:
            atol = float(parts[2])
    except ValueError:
        raise SystemExit(f"error: bad --gate spec '{spec}': BAND and ATOL "
                         f"must be numbers")
    return parts[0], band, atol


def read_history(path):
    """Past runs, oldest first. A missing file is an empty history; a
    truncated final line (crashed writer) is tolerated with a warning."""
    if not path.exists():
        return []
    runs = []
    try:
        lines = path.read_text().splitlines()
    except OSError as error:
        raise SystemExit(f"error: cannot read trend history {path}: {error}")
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            runs.append(json.loads(line))
        except json.JSONDecodeError:
            if number == len(lines):
                print(f"warning: ignoring truncated final history line in "
                      f"{path}", file=sys.stderr)
                continue
            raise SystemExit(
                f"error: corrupt trend history {path} at line {number}")
    return runs


def baseline_median(history, cell, key, window):
    values = []
    for run in history[-window:]:
        value = run.get("cells", {}).get(cell, {}).get(key)
        if isinstance(value, (int, float)):
            values.append(float(value))
    return statistics.median(values) if values else None


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("candidate_dir", type=Path,
                        help="directory of this run's BENCH_*.json files")
    parser.add_argument("--trend-dir", type=Path, required=True,
                        help="history directory (holds trend.jsonl)")
    parser.add_argument("--window", type=int, default=10,
                        help="rolling-baseline window in runs (default 10)")
    parser.add_argument("--band", type=float, default=0.15,
                        help="relative wall-time noise band (default 0.15)")
    parser.add_argument("--atol-seconds", type=float, default=0.05,
                        help="absolute wall-time slack so micro-cells never "
                             "flake (default 0.05)")
    parser.add_argument("--gate", action="append", default=[],
                        metavar="FIELD[:BAND[:ATOL]]",
                        help="additionally gate a numeric BENCH json field "
                             "(higher is worse) against its rolling median; "
                             "repeatable. BAND/ATOL default to --band and "
                             "--atol-seconds. Missing fields are skipped "
                             "with a notice.")
    parser.add_argument("--label", default="",
                        help="free-form tag recorded with this run (e.g. a "
                             "commit hash)")
    parser.add_argument("--append-always", action="store_true",
                        help="record the run in the history even when it "
                             "regressed")
    parser.add_argument("--no-append", action="store_true",
                        help="gate only; leave the history untouched")
    args = parser.parse_args()

    gates = [parse_gate(spec, args.band, args.atol_seconds)
             for spec in args.gate]

    if not args.candidate_dir.is_dir():
        print(f"error: candidate directory {args.candidate_dir} does not "
              f"exist", file=sys.stderr)
        return 1
    cells = load_cells(args.candidate_dir,
                       gate_fields=[field for field, _, _ in gates])
    if not cells:
        print(f"error: no BENCH_*.json files in {args.candidate_dir}",
              file=sys.stderr)
        return 1

    history_path = args.trend_dir / "trend.jsonl"
    history = read_history(history_path)

    regressions = 0
    gated = 0
    for name, cell in sorted(cells.items()):
        wall = cell.get(WALL_KEY)
        base_wall = baseline_median(history, name, WALL_KEY, args.window)
        if isinstance(wall, (int, float)) and base_wall is not None:
            gated += 1
            limit = base_wall * (1.0 + args.band) + args.atol_seconds
            if wall > limit:
                print(f"REGRESSION {name}: wall {wall:.3f}s > "
                      f"{limit:.3f}s (median {base_wall:.3f}s of last "
                      f"{args.window}, band {args.band:.0%} "
                      f"+{args.atol_seconds}s)")
                regressions += 1
            else:
                print(f"ok         {name}: wall {wall:.3f}s "
                      f"(median {base_wall:.3f}s, limit {limit:.3f}s)")
        for field, band, atol in gates:
            value = cell.get(field)
            if not isinstance(value, (int, float)):
                print(f"notice     {name}: no '{field}' in this run's json; "
                      f"gate skipped")
                continue
            base = baseline_median(history, name, field, args.window)
            if base is None:
                if history:
                    print(f"notice     {name}: no '{field}' baseline in the "
                          f"last {args.window} runs (history predates the "
                          f"field?); gate skipped")
                continue
            gated += 1
            limit = base * (1.0 + band) + atol
            if value > limit:
                print(f"REGRESSION {name}: {field} {value:.3f} > "
                      f"{limit:.3f} (median {base:.3f} of last "
                      f"{args.window}, band {band:.0%} +{atol})")
                regressions += 1
            else:
                print(f"ok         {name}: {field} {value:.3f} "
                      f"(median {base:.3f}, limit {limit:.3f})")

    if gated == 0:
        print(f"no usable baseline in {history_path} yet; seeding it with "
              f"{len(cells)} cells")

    record = {"t": time.time(), "label": args.label, "cells": cells}
    append = not args.no_append and (regressions == 0 or args.append_always)
    if append:
        args.trend_dir.mkdir(parents=True, exist_ok=True)
        with history_path.open("a") as out:
            out.write(json.dumps(record, sort_keys=True) + "\n")

    if regressions:
        print(f"{regressions} perf regressions across {len(cells)} cells "
              f"(history {'updated' if append else 'NOT updated'})",
              file=sys.stderr)
        return 2
    print(f"{len(cells)} cells within the noise band; history at "
          f"{history_path} now {len(history) + (1 if append else 0)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
