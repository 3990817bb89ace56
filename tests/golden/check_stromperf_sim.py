#!/usr/bin/env python3
"""Checks stromperf's simulated output against the seed-1 golden or another build.

    python3 tests/golden/check_stromperf_sim.py <path to stromperf>
    python3 tests/golden/check_stromperf_sim.py <path to stromperf> --against <other stromperf>

The first form runs every workload named in stromperf_sim_seed1.json at seed 1
and compares its "sim" object key by key with the recorded one.

The second form runs the same workloads at seeds 1-5 on both binaries (for
example a change and its parent commit) and compares the whole "sim" objects.

Two keys are host-allocator counts, not simulated work: common.frame_allocs
and common.frame_reuse_ratio count how often the host's frame pool reuses a
block. The golden check ignores them; the --against check lists their
differences separately. Exits 1 on any difference in another key.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "stromperf_sim_seed1.json")
HOST_ALLOCATOR = {"common.frame_allocs", "common.frame_reuse_ratio"}
AGAINST_SEEDS = range(1, 6)


def run_sim(binary, workload, seed):
    """Returns the "sim" object of one stromperf run."""
    proc = subprocess.run([binary, f"--workload={workload}", f"--seed={seed}"],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["sim"]


def differing_keys(want, got):
    return [key for key in sorted(set(want) | set(got)) if want.get(key) != got.get(key)]


def check_golden(binary, golden):
    diffs = []
    for workload, want in golden.items():
        got = run_sim(binary, workload, 1)
        for key in differing_keys(want, got):
            if key not in HOST_ALLOCATOR:
                diffs.append(f"{workload}: {key}: golden {want.get(key)!r}, "
                             f"got {got.get(key)!r}")
        print(f"{workload}: {len(set(want) - HOST_ALLOCATOR)} keys compared")
    for d in diffs:
        print(f"DIFF {d}")
    return 1 if diffs else 0


def check_against(binary, other, workloads):
    diffs = []
    allocator_diffs = []
    for workload in workloads:
        for seed in AGAINST_SEEDS:
            want = run_sim(other, workload, seed)
            got = run_sim(binary, workload, seed)
            for key in differing_keys(want, got):
                line = (f"{workload} seed {seed}: {key}: other {want.get(key)!r}, "
                        f"this {got.get(key)!r}")
                (allocator_diffs if key in HOST_ALLOCATOR else diffs).append(line)
            print(f"{workload} seed {seed}: {len(set(want) | set(got))} keys compared")
    for d in allocator_diffs:
        print(f"HOST ALLOCATOR {d}")
    for d in diffs:
        print(f"DIFF {d}")
    print(f"{len(diffs)} simulated and {len(allocator_diffs)} host-allocator differences")
    return 1 if diffs else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stromperf", help="path to the stromperf binary to check")
    parser.add_argument("--against", metavar="STROMPERF",
                        help="compare seeds 1-5 with this binary instead of the golden")
    args = parser.parse_args()
    with open(GOLDEN) as f:
        golden = json.load(f)
    if args.against:
        return check_against(args.stromperf, args.against, list(golden))
    return check_golden(args.stromperf, golden)


if __name__ == "__main__":
    sys.exit(main())
