#!/usr/bin/env python3
"""Builds and runs the Hyder II benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hot --seed 1 --seconds 34 --trace 0

The benchmark program (perfbench/hyder_perf.cc) and the libraries under src/
are built with CMake into .bench_build/perfbench, then the program runs one
workload. The last line of standard output is the program's JSON result.
Without the sources under src/ the build fails and this exits non-zero
without a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hyder_perf")
# A first run builds, then measures; together they stay under 900 seconds.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, timeout):
    """Runs cmd with its output on stderr; returns its exit code. On timeout
    the whole process group (the compilers a build starts) is killed and
    waited for."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        print(f"timed out: {' '.join(cmd)}", file=sys.stderr)
        return 1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("src/CMakeLists.txt not found: run from a full checkout",
              file=sys.stderr)
        return False
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", BUILD, "--target", "hyder_perf",
                "-j", jobs], max(1, deadline - time.monotonic())) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print("benchmark printed no result", file=sys.stderr)
        return 1
    sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
