#!/usr/bin/env python3
"""Checks stromperf's simulated output against the seed-1 golden.

    python3 tests/golden/check_stromperf_sim.py <path to stromperf>

Runs every workload named in stromperf_sim_seed1.json at seed 1 and compares
its "sim" object key by key with the recorded one. Two keys are ignored:
common.frame_allocs and common.frame_reuse_ratio count how often the host's
frame pool reuses a block, not simulated work. Exits 1 on any difference.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "stromperf_sim_seed1.json")
IGNORED = {"common.frame_allocs", "common.frame_reuse_ratio"}


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: check_stromperf_sim.py <path to stromperf>")
    binary = sys.argv[1]
    with open(GOLDEN) as f:
        golden = json.load(f)
    diffs = []
    for workload, want in golden.items():
        proc = subprocess.run([binary, f"--workload={workload}", "--seed=1"],
                              capture_output=True, text=True, check=True)
        got = json.loads(proc.stdout.strip().splitlines()[-1])["sim"]
        for key in sorted((set(want) | set(got)) - IGNORED):
            if want.get(key) != got.get(key):
                diffs.append(f"{workload}: {key}: golden {want.get(key)!r}, "
                             f"got {got.get(key)!r}")
        print(f"{workload}: {len(set(want) - IGNORED)} keys compared")
    for d in diffs:
        print(f"DIFF {d}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
