#!/usr/bin/env python3
"""Compare per-run BENCH_*.json files against a committed baseline.

Usage:
  compare_bench_json.py BASELINE_DIR CANDIDATE_DIR

Every BENCH_<benchmark>__<strategy>.json in BASELINE_DIR must exist in
CANDIDATE_DIR with the same "benchmark" and "strategy" keys and with every
*count* field (cost_after_random, cost, sat_calls, sat_conflicts,
sat_propagations, sat_restarts, proven, disproven, unresolved) equal.
Counts are deterministic, so there is no tolerance: a count that moves by
one is a changed vector or a changed solver path, and needs a re-baseline.
Timing fields (sim_seconds, sat_seconds, wall_seconds, ...) are
machine-dependent and ignored. Extra candidate files are ignored, so the
baseline can cover a subset.

Multithreaded runs gate with the same strictness: bench drivers
parallelize across whole (benchmark, strategy) cells while each flow
keeps the sequential sweep engine, so every count field is
thread-invariant by construction (only the ignored timing fields pick up
scheduling noise). The "num_threads" field each run records is compared
for information only — a count mismatch against a multithreaded
candidate is a real regression, never schedule noise, and is reported as
such.

Exit code 0 when everything matches, 1 on any mismatch, on a missing or
unreadable baseline/candidate file, or on a baseline directory with no
BENCH_*.json files at all — a gate that cannot read its baseline must
fail loudly, never skip.
"""
import argparse
import json
import sys
from pathlib import Path

EXACT_FIELDS = ("benchmark", "strategy")
COUNT_FIELDS = (
    "cost_after_random",
    "cost",
    "sat_calls",
    "sat_conflicts",
    "sat_propagations",
    "sat_restarts",
    "proven",
    "disproven",
    "unresolved",
)


def load_json(path, role):
    """Reads one BENCH json; returns (dict, None) or (None, error line)."""
    try:
        return json.loads(path.read_text()), None
    except OSError as error:
        return None, f"UNREADABLE {path.name}: cannot read {role}: {error}"
    except json.JSONDecodeError as error:
        return None, f"CORRUPT  {path.name}: {role} is not valid JSON: {error}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir", type=Path)
    parser.add_argument("candidate_dir", type=Path)
    args = parser.parse_args()

    if not args.baseline_dir.is_dir():
        print(f"error: baseline directory {args.baseline_dir} does not exist",
              file=sys.stderr)
        return 1
    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"error: no BENCH_*.json files in {args.baseline_dir}",
              file=sys.stderr)
        return 1

    failures = 0
    compared = 0
    for baseline_path in baselines:
        candidate_path = args.candidate_dir / baseline_path.name
        if not candidate_path.exists():
            print(f"MISSING  {baseline_path.name}: not produced by this run")
            failures += 1
            continue
        baseline, error = load_json(baseline_path, "baseline")
        if baseline is None:
            print(error)
            failures += 1
            continue
        candidate, error = load_json(candidate_path, "candidate")
        if candidate is None:
            print(error)
            failures += 1
            continue
        compared += 1
        base_threads = baseline.get("num_threads", 1)
        cand_threads = candidate.get("num_threads", 1)
        if base_threads != cand_threads:
            print(f"note     {baseline_path.name}: candidate ran with "
                  f"{cand_threads} bench threads (baseline {base_threads}); "
                  f"counts are thread-invariant and still gate exactly")
        for field in EXACT_FIELDS:
            if baseline.get(field) != candidate.get(field):
                print(f"MISMATCH {baseline_path.name}: {field} "
                      f"{candidate.get(field)!r} != baseline "
                      f"{baseline.get(field)!r}")
                failures += 1
        for field in COUNT_FIELDS:
            if field not in baseline:
                continue
            if field not in candidate:
                print(f"MISMATCH {baseline_path.name}: {field} missing")
                failures += 1
                continue
            if candidate[field] != baseline[field]:
                print(f"MISMATCH {baseline_path.name}: {field} "
                      f"{candidate[field]} vs baseline {baseline[field]}")
                failures += 1

    if failures:
        print(f"{failures} mismatches across {compared} compared files",
              file=sys.stderr)
        return 1
    print(f"{compared} BENCH json files match the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
