#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source, then runs one workload.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload train|query|ingest_refresh \
        --seed N --seconds S --trace 0|1

The first call configures and compiles e2ebench/CMakeLists.txt (which
builds the repository's libraries from src/) into .bench_build/; later calls
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit code is the benchmark's:
0 only when every correctness check passed. Without the library sources
(or on any build failure) it exits 2 and prints no result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark binary; True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "e2ebench", "-j", jobs],
        stdout=sys.stderr)
    return result.returncode == 0


def main():
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([BINARY] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
