#!/usr/bin/env python3
"""End-to-end scheduling benchmark: build, then run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cnn-default --seed 1 \
        --seconds 15 --trace 0

Builds perfbench/ (a CMake package compiling the checkout's src/) into
.bench_build/perfbench, runs soma_perfbench with a private scratch
directory under .bench_build, and relays its output. The last line of
standard output is the benchmark's JSON result. Exits non-zero without
a result when the library sources or the toolchain are missing or the
build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cnn-default", "full-banked", "sweep-cache")


def build(build_dir):
    """Configure (once) and build; returns the binary path or None."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                   "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                return None
        cmd = ["cmake", "--build", build_dir, "-j", "4"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            return None
    return os.path.join(build_dir, "soma_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "api", "scheduler.h")):
        print("run.py: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    if not shutil.which("cmake"):
        print("run.py: cmake not found", file=sys.stderr)
        return 2

    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("run.py: build failed; see " +
              os.path.join(build_dir, "build.log"), file=sys.stderr)
        return 1

    work_dir = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    try:
        return subprocess.call([
            binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--work-dir", work_dir])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
