#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload branch_mail --seed 1 --seconds 20 --trace 0

The framework libraries and perfbench/main.cpp are compiled with CMake into
$CARGO_TARGET_DIR (default .bench_build) on first use; later runs reuse the
build. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Traced runs (--trace 1) write their spans under
<build dir>/traces/. The exit code is the benchmark's: non-zero when the
build fails or any correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(2, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "psf_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "psf_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", os.path.join(build_dir, "traces")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
