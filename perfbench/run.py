#!/usr/bin/env python3
"""Builds the service benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload slider_hits --seed 1 --trace 0

The first run configures and builds `dspec` and the `perfbench` load
generator into .bench_build (CMake, RelWithDebInfo); later runs only
rebuild what changed. Everything after the build is the perfbench binary:
it starts `dspec serve`, drives the workload, and prints one JSON object
as its last line. Extra modes:

    --repeat N        run N seeds (seed, seed+1, ...) and print each
                      metric's median and quartile spread
    --describe        print BENCHMARK.json (run_seconds is --seconds)
    --selftest        build and run the statistics tests
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"


def run(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write("error: %s failed\n" % " ".join(cmd))
        sys.exit(2)


def build(targets):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run(["cmake", "-S", "perfbench", "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", BUILD, "--parallel", jobs, "--target"] + targets)


def main(argv):
    os.chdir(ROOT)
    if "--selftest" in argv:
        build(["perfbench_stats_test"])
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_stats_test")]).returncode
    build(["perfbench", "dspec"])
    cmd = [os.path.join(BUILD, "perfbench"),
           "--dspec", os.path.join(BUILD, "tools", "dspec"),
           "--workdir", os.path.join(BUILD, "run")] + argv
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
