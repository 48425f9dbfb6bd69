#!/usr/bin/env python3
"""Builds and runs the synat benchmark.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --write-inputs DIR --seed N

The first call configures and builds perfbench/CMakeLists.txt (the synat
libraries from src/ plus the benchmark binary) into .bench_build/perfbench;
later calls only re-check the build. A failed build exits with code 2 and
prints no result. Otherwise the benchmark binary's output is passed through:
its last line is the JSON result, and its exit code is this script's.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
# The benchmark measures for at most 60 s and checks its outputs after;
# a run that takes this long is stuck.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        # The binary reads perfbench/expected.json from its working directory.
        proc = subprocess.run([str(BINARY)] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
