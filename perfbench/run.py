#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flat_simgen --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles the SimGen sources next to it) into
$CARGO_TARGET_DIR, default .bench_build, then runs one workload in one
process. The last line of stdout is the benchmark's JSON result; build
output goes to stderr. A traced run (--trace 1) also writes its span
ledger to <build dir>/ledgers/. Exits non-zero without a result when the
sources are missing, the build fails, or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("flat_simgen", "stacked_revs", "cec_certified")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def default_build_dir():
    return os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: SimGen sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = default_build_dir()
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        sys.exit(f"perfbench: build failed: {error}")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        ledger_dir = os.path.join(build_dir, "ledgers")
        os.makedirs(ledger_dir, exist_ok=True)
        command += ["--ledger-out", os.path.join(
            ledger_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(result.stdout)
        sys.exit(f"perfbench: run failed with exit code {result.returncode}")
    json.loads(lines[-1])  # the last line must be the result object
    sys.stdout.write(result.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
