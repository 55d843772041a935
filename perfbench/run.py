#!/usr/bin/env python3
"""Build and run the membw end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload traffic_curves --seed 1 \\
        --seconds 20 --trace 0

Configures and builds perfbench/ (the membw libraries, membw_served
and membw_perfbench) under .bench_build/perfbench, then runs one
workload.  The last line of stdout is the result JSON; build output
goes to stderr.  Exits non-zero, printing no result, when the sources
are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "run")
WORKLOADS = ("traffic_curves", "decompose", "served_mix")


def build():
    """Configure once, then build incrementally; output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr):
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record-goldens", action="store_true",
                        help="write goldens/<workload>_<seed>.txt "
                             "instead of checking them")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    os.chdir(ROOT)
    if not os.path.exists(os.path.join("src", "CMakeLists.txt")):
        print("error: membw sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    if not build():
        print("error: build failed", file=sys.stderr)
        return 1
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD, "membw_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--goldens", os.path.join(HERE, "goldens"),
           "--daemon", os.path.join(BUILD, "membw_served"),
           "--run-dir", RUN_DIR]
    if args.record_goldens:
        cmd.append("--record-goldens")
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
