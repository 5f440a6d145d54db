#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

Run from the repository root:

    python3 servebench/run.py --workload chat --seed 1 --seconds 20 --trace 0

The first run configures and builds servebench/ (which compiles the qserve
library from src/) into .bench_build/servebench; later runs rebuild
incrementally. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. --trace 1 also writes a Chrome trace-event file next
to the build. The exit code is the benchmark's: non-zero when the build fails
or any output check fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
WORKLOADS = ("chat", "shared_prefix", "long_decode")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "servebench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("servebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()
    if a.seconds < 1 or a.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")
    if not build():
        return 1
    cmd = [os.path.join(BUILD, "servebench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        cmd += ["--trace-out", os.path.join(
            BUILD, "trace-%s-%d.json" % (a.workload, a.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
