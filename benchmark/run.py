#!/usr/bin/env python3
"""Builds the FairEM benchmark from source, then runs one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works from the repository root. The first call
configures and builds build-bench/ (the library with the product build's
flags, plus fairem_benchmark); later calls only check that it is up to date.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Every other argument is passed to fairem_benchmark unchanged
(see benchmark/README.md). A failed build exits non-zero with no result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = "build-bench"


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "benchmark", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "fairem_benchmark"])
    for step in steps:
        code = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode
        if code != 0:
            print("benchmark build failed: " + " ".join(step), file=sys.stderr)
            return code
    return 0


def main():
    os.chdir(ROOT)
    code = build()
    if code != 0:
        return code
    binary = os.path.join(BUILD_DIR, "fairem_benchmark")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
