#!/usr/bin/env python3
"""Runs perfbench and checks its correctness gate and simulated fingerprints.

Usage, from the root of a checkout:

    python3 tools/perf_fingerprints.py [--seeds 1 2 3]

Each workload listed in BENCHMARK.json runs once per seed, for 5 seconds,
through perfbench/run.py (which builds into $CARGO_TARGET_DIR). A run passes
when its JSON result says `correct` and its printed `fingerprint` equals the
value perfbench/README.md lists for that workload and seed. A change that claims
only host speed must keep every simulated output, so every fingerprint,
unchanged. Exits non-zero on any failure. perfbench/ is only read.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Long enough for several rounds; the fingerprint does not depend on it.
SECONDS = 5


def listed_fingerprints():
    """{workload: {seed: hex}} from the README's fingerprint list."""
    with open(os.path.join(ROOT, "perfbench", "README.md")) as f:
        text = f.read()
    listed = {}
    for workload, body in re.findall(
            r"^- (\w+): ((?:\d+ `[0-9a-f]{16}`,?\s*)+)", text, re.M):
        listed[workload] = {int(seed): fp for seed, fp in
                            re.findall(r"(\d+) `([0-9a-f]{16})`", body)}
    return listed


def run(workload, seed):
    """(correct, fingerprint) of one perfbench run; (False, None) on error."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    fingerprint = next((line.split()[1] for line in lines
                        if line.startswith("fingerprint ")), None)
    try:
        correct = json.loads(lines[-1]).get("correct") is True
    except (IndexError, ValueError):
        correct = False
    return correct and proc.returncode == 0, fingerprint


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    listed = listed_fingerprints()
    failures = 0
    for workload in workloads:
        for seed in args.seeds:
            want = listed.get(workload, {}).get(seed)
            correct, got = run(workload, seed)
            ok = correct and want is not None and got == want
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload} seed {seed}: "
                  f"correct={correct} fingerprint={got} listed={want}")
    if failures:
        print(f"{failures} perfbench run(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
