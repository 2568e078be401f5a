#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py --workloads flat_simgen --seeds 1 2 3 4 5

Runs perfbench/run.py once per (workload, seed), untraced, one run at a
time, and prints for every end-to-end metric of BENCHMARK.json its median
and its spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound. Exits non-zero if a run fails or reports
"correct": false. --out FILE also saves the raw results as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(result.stdout.strip().split("\n")[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else 0.0


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    raw = {}
    ok = True
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        raw[workload] = results
        ok = ok and all(r["correct"] and r["failed"] == 0 for r in results)
        print(f"{workload}: {len(results)} runs, seeds {args.seeds}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            med, iqr = spread(values)
            flag = "" if iqr < metric["bound"] / 3 else "  (above bound/3)"
            print(f"  {metric['name']:<14} median {med:<14.6g} {metric['unit']:<6}"
                  f" IQR/median {100 * iqr:6.2f}%  bound {100 * metric['bound']:.0f}%"
                  f"{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
