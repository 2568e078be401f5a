#!/usr/bin/env python3
"""Self-test of the benchmark: counts are deterministic per seed.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Builds perfbench (as run.py does), then runs every workload on a reduced
input (its first few items, one untraced and one traced pass) twice with
seed 1 and once with seed 2. Asserts that each run is correct, that the
traced ledger check passes, that `cost`, `sat_calls` and every per-layer
counter are identical between the two seed-1 runs, and that seed 2
changes at least one of them. Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (sibling module: the build step)

REDUCED_ITEMS = {"flat_simgen": 6, "stacked_revs": 1, "cec_certified": 4}


def measure(binary, workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", "1", "--all-metrics",
         "--items", str(REDUCED_ITEMS[workload])],
        stdout=subprocess.PIPE, text=True, check=True, timeout=170).stdout
    lines = out.strip().split("\n")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"FAIL {workload} seed {seed}: run not correct\n{out}")
    if not any(l.strip().startswith("ledger check:") and l.endswith(": ok")
               for l in lines):
        sys.exit(f"FAIL {workload} seed {seed}: ledger check\n{out}")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio")}


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = run.build(root, run.default_build_dir())
    for workload in REDUCED_ITEMS:
        first = measure(binary, workload, 1)
        second = measure(binary, workload, 1)
        other = measure(binary, workload, 2)
        if "cost" not in first or "sat_calls" not in first:
            sys.exit(f"FAIL {workload}: cost/sat_calls missing")
        differing = sorted(k for k in first if first[k] != second[k])
        if differing:
            sys.exit(f"FAIL {workload}: seed 1 twice differs in {differing}")
        if first == other:
            sys.exit(f"FAIL {workload}: seed 2 changes no count")
        print(f"ok {workload}: {len(first)} counts repeat for seed 1; "
              f"seed 2 changes {sum(first[k] != other[k] for k in first)}")


if __name__ == "__main__":
    main()
