#!/usr/bin/env python3
"""Build and run the gpuperf benchmark.

Usage (from the root of a gpuperf checkout):

    python3 perfbench/run.py --workload cold-spec --seed 1 --seconds 10 --trace 0

The script configures and builds perfbench/ (which builds the gpuperf
library from the checkout's own sources) into .bench_build/perfbench,
then runs the perfbench binary with the same arguments. The binary
prints human-readable lines and, as its last line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and metrics.

A failed build or run exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold-spec", "what-if-grid", "serve-mixed")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the perfbench target; log to stderr."""
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    if not build(build_dir):
        return 1
    exe = os.path.join(build_dir, "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
