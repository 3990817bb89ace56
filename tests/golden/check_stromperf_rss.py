#!/usr/bin/env python3
"""Fails when a stromperf workload's peak RSS grows past its recorded ceiling.

    python3 tests/golden/check_stromperf_rss.py <path to stromperf>

Runs every workload in CEILING_MB at seed 1 and reads host.peak_rss_mb (the
process's ru_maxrss) from the last stdout line. Each ceiling is the value
measured when it was recorded plus about 25% headroom for other compilers and
C libraries. Exits 1 when any workload is above its ceiling. When a change
makes a workload's RSS fall, lower its ceiling in the same change.

Run it on a build without sanitizers: ASan's shadow memory inflates RSS.
"""

import json
import subprocess
import sys

# Seed-1 peak RSS in MB, measured with perfbench's default build (GCC 12.2,
# RelWithDebInfo): rack_mixed 57.8, rack_incast 41.7, shuffle_stream 160.9.
CEILING_MB = {
    "rack_mixed": 72,
    "rack_incast": 52,
    "shuffle_stream": 200,
}


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: check_stromperf_rss.py <path to stromperf>")
    over = []
    for workload, ceiling in CEILING_MB.items():
        proc = subprocess.run([sys.argv[1], f"--workload={workload}", "--seed=1"],
                              capture_output=True, text=True, check=True)
        rss = json.loads(proc.stdout.strip().splitlines()[-1])["host"]["peak_rss_mb"]
        print(f"{workload}: peak_rss_mb {rss:.1f}, ceiling {ceiling}")
        if rss > ceiling:
            over.append(workload)
    for workload in over:
        print(f"OVER {workload}: peak RSS above its recorded ceiling")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
