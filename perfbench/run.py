#!/usr/bin/env python3
"""Builds and runs the serving benchmark (perfbench/serve_bench.cc).

Run from the repository root:

  python3 perfbench/run.py --workload serve_eval --seed 1 --seconds 20 --trace 0

The first run configures perfbench/ with CMake (it compiles the library from
src/) into .bench_build/perfbench and builds serve_bench; later runs rebuild
only what changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The index files of a run live
under .bench_build/perfbench-data and are removed when the run ends.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DATA_DIR = os.path.join(ROOT, ".bench_build", "perfbench-data")
WORKLOADS = ("serve_eval", "serve_hot")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources at {os.path.join(ROOT, 'src')}")
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "serve_bench"]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "serve_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    os.makedirs(DATA_DIR, exist_ok=True)
    sys.stdout.flush()
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--data-dir", DATA_DIR],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"serve_bench did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
