#!/usr/bin/env python3
r"""Builds and runs the MayBMS end-to-end benchmark.

    python3 perfbench/run.py --workload census_query --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. The first call configures and builds the
engine library from src/ together with the benchmark into .bench_build/
(a Release build); later calls rebuild only what changed. Each call runs
the benchmark's self-tests, then one workload, and passes the workload's
output through: its last line is the JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("census_query", "sensor_stream", "server_mixed")


def build():
    """Configures (once) and builds; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    if not build():
        print("error: build failed", file=sys.stderr)
        return 3
    os.makedirs(WORK, exist_ok=True)
    selftest = subprocess.run(
        [os.path.join(BUILD, "perfbench_selftest"), WORK],
        stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode:
        print("error: benchmark self-tests failed", file=sys.stderr)
        return 4
    run = subprocess.run(
        [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--work-dir", WORK])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
