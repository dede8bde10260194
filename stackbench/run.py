#!/usr/bin/env python3
"""Build and run the full-stack benchmark.

    python3 stackbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 stackbench/run.py --self-test

Run from the root of the repository. The benchmark binary is built from
the sources in the checkout into .bench_build/ (CMake, Release), and all
files a run writes (WAL, checkpoints, traced spans) stay under
.bench_build/data/. The binary's standard output is passed through; its
last line is the JSON result. Build output goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DATA_DIR = os.path.join(BUILD_DIR, "data")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "--target", "stackbench", "-j", "4"]):
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "stackbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required (or --self-test)")

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        print(f"stackbench: build failed: {err}", file=sys.stderr)
        return 1

    os.makedirs(DATA_DIR, exist_ok=True)
    if args.self_test:
        cmd = [binary, "--self-test", "--data-dir", DATA_DIR]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--data-dir", DATA_DIR]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("stackbench: run exceeded its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
