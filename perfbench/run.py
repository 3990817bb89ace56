#!/usr/bin/env python3
"""End-to-end benchmark of the StRoM simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/stromperf from this checkout's sources (CMake, into a
directory of this checkout's own under $CARGO_TARGET_DIR or .bench_build),
then runs the workload in fresh processes, one simulation each, for about
--seconds of host time, all with the same seed. Each process uses the
simulator's default configuration: STROM_* environment overrides are removed
before it starts.

--trace 0 prints the end-to-end metrics: the simulation time summed over its
1 ms slices of simulated time, each slice from its fastest run; medians over
the runs for set-up time and memory; and the simulated results, which must be
bit-identical across the runs. --trace 1 prints the per-layer metrics: phase times and layer
counts from the same uninstrumented runs, then one traced run (span tracer +
SIGPROF sampler) for the host-time and simulated-time shares, then one run
with the next seed, whose simulated results must differ.

The last stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A failed correctness gate prints it with "correct": false and exits 1.
See perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rack_mixed", "rack_incast", "shuffle_stream")
RUN_TIMEOUT_S = 150
MIN_TIMED_RUNS = 3
# A traced run with fewer host-time samples than this is too short to split.
MIN_CPU_SAMPLES = 100

# Source modules under src/ that get their own <module>.cpu_share.
MODULES = ("sim", "roce", "fabric", "netsim", "pcie", "strom", "kernels", "common", "proto",
           "host", "workload", "telemetry", "testbed", "kvs", "cpu", "tcp", "faults",
           "resmodel")
SIMTIME_STAGES = ("verbs", "nic_msg", "doorbell", "kernel", "nic_tx", "nic_rx", "wire",
                  "dma", "uncovered")
COUNTS = ("sim.events", "roce.tx_packets", "roce.retransmitted_packets", "roce.timeouts",
          "roce.rx_cnp", "roce.dcqcn_rate_cuts", "roce.pacing_deferrals",
          "roce.useful_tx_ratio", "fabric.frames_forwarded", "fabric.ce_marked",
          "fabric.tail_drops", "fabric.queue_bytes_peak", "netsim.frames_sent",
          "netsim.frames_dropped", "pcie.dma_commands", "pcie.dma_bytes",
          "pcie.segment_splits", "strom.rpcs_dispatched", "strom.kernel_dma_reads",
          "strom.kernel_dma_writes", "common.frame_allocs", "common.frame_reuse_ratio")
PHASES = ("phase.build_s", "phase.setup_s", "phase.run_s", "phase.teardown_s",
          "pcie.mem_fill_s", "sim.ns_per_event")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds stromperf; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit(f"run.py: simulator sources not found under {ROOT}/src")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    # One build directory per checkout: two checkouts that share a target
    # directory never compile each other's sources.
    tag = hashlib.sha256(os.path.realpath(HERE).encode()).hexdigest()[:12]
    build_dir = os.path.join(os.path.abspath(target), f"perfbench-{tag}")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir], check=True, **quiet)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "stromperf"],
                   check=True, **quiet)
    return os.path.join(build_dir, "stromperf")


def child_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("STROM_")}


def run_once(binary, workload, seed, traced=False):
    cmd = [binary, f"--workload={workload}", f"--seed={seed}"] + (["--traced"] if traced else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                          env=child_env(), cwd=ROOT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"run.py: {' '.join(cmd)} exited {proc.returncode} without output")
    out = json.loads(lines[-1])
    if proc.returncode not in (0, 3):
        sys.exit(f"run.py: {' '.join(cmd)} exited {proc.returncode}")
    return out


def symbolize(binary, offsets):
    """Maps executable offsets to their inline chains of source files."""
    if not offsets:
        return {}
    query = "\n".join(hex(o) for o in offsets) + "\n"
    proc = subprocess.run(["addr2line", "-i", "-a", "-e", binary], input=query,
                          capture_output=True, text=True, check=True)
    chains, current = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("0x"):
            current = int(line, 16)
            chains[current] = []
        elif current is not None:
            chains[current].append(line.rsplit(":", 1)[0])
    return chains


def cpu_shares(binary, stacks):
    """Charges each sample to the module of its innermost frame under src/."""
    src = os.path.realpath(os.path.join(ROOT, "src")) + os.sep
    chains = symbolize(binary, sorted({f for _, frames in stacks for f in frames if f}))
    counts = {m: 0 for m in MODULES + ("other",)}
    for n, frames in stacks:
        module = "other"
        for f in frames:
            files = [os.path.normpath(p) for p in chains.get(f, [])]
            hit = next((p for p in files if p.startswith(src)), None)
            if hit:
                name = hit[len(src):].split(os.sep, 1)[0]
                module = name if name in counts else "other"
                break
        counts[module] += n
    total = sum(counts.values())
    return {f"{m}.cpu_share": (c / total if total else 0.0) for m, c in counts.items()}, total


def machine_tags(env):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            model = m.group(1).strip() if m else model
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        commit = r.stdout.strip() or commit
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, **env,
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_TIMED_RUNS or time.monotonic() - start < args.seconds:
        runs.append(run_once(binary, args.workload, args.seed))
    ref = runs[0]["sim"]
    traced = other = None
    if args.trace:
        traced = run_once(binary, args.workload, args.seed, traced=True)
        other = run_once(binary, args.workload, args.seed + 1)

    failures = []
    for r in runs + [x for x in (traced, other) if x]:
        failures += [f"seed {r['seed']}: {e}" for e in r["errors"]]
    if any(r["sim"] != ref for r in runs[1:]):
        failures.append("simulated results differ between runs of one seed")
    if traced and traced["sim"] != ref:
        failures.append("the traced run's simulated results differ from the untraced ones")
    if other and other["sim"] == ref:
        failures.append(f"seed {args.seed + 1} gave the same simulated results")

    # The workloads must split the layers as README.md claims.
    congestion = [ref[k] for k in ("fabric.ce_marked", "roce.rx_cnp", "roce.pacing_deferrals")]
    if args.workload == "rack_mixed" and any(congestion):
        failures.append("rack_mixed exercised the congestion path")
    if args.workload == "rack_incast" and not all(congestion):
        failures.append("rack_incast left the congestion path idle")
    if args.workload == "shuffle_stream" and any(v for k, v in ref.items()
                                                 if k.startswith("fabric.")):
        failures.append("shuffle_stream sent traffic through a switch")

    def host(key):
        return statistics.median(r["host"][key] for r in runs)

    metrics = {}
    if not args.trace:
        # Each slice of simulated time from its fastest run: on a shared host,
        # interference from other work only ever adds time, and it comes in
        # bursts shorter than a run, so the slice-wise minimum stays put while
        # even the fastest whole run moves with the host's load.
        slices = [r["host"]["run_slices_s"] for r in runs]
        if len({len(s) for s in slices}) != 1:
            failures.append("runs of one seed cut the simulation into different slices")
        metrics["wall_s"] = (sum(min(col) for col in zip(*slices)), "s")
        metrics["setup_s"] = (statistics.median(
            r["host"]["phase.build_s"] + r["host"]["phase.setup_s"] for r in runs), "s")
        metrics["peak_rss_mb"] = (host("peak_rss_mb"), "MB")
        metrics["op_p50_us"] = (ref["op_p50_us"], "us")
        metrics["op_p999_us"] = (ref["op_p999_us"], "us")
        metrics["goodput_gbps"] = (ref["goodput_gbps"], "Gbit/s")
    else:
        for k in PHASES:
            metrics[k] = (host(k), "ns" if k == "sim.ns_per_event" else "s")
        for k in COUNTS:
            metrics[k] = (ref[k], "ratio" if k.endswith("_ratio") else "count")
        shares, samples = cpu_shares(binary, traced["traced"]["cpu_stacks"])
        if samples < MIN_CPU_SAMPLES:
            failures.append(f"the traced run took {samples} cpu samples, "
                            f"fewer than {MIN_CPU_SAMPLES}")
        if samples == 0 or abs(sum(shares.values()) - 1) > 1e-9:
            failures.append("host-time shares do not sum to 1")
        for k, v in shares.items():
            metrics[k] = (v, "share")
        simtime = {f"simtime.{s}": traced["traced"][f"simtime.{s}"] for s in SIMTIME_STAGES}
        if abs(sum(simtime.values()) - 1) > 1e-9:
            failures.append("simulated-time shares do not sum to 1")
        for k, v in simtime.items():
            metrics[k] = (v, "share")
        metrics["telemetry.spans"] = (traced["traced"]["telemetry.spans"], "count")
        metrics["telemetry.trace_overhead_frac"] = (
            traced["host"]["phase.run_s"] / host("phase.run_s") - 1, "ratio")
        log(f"traced run: {samples} cpu samples "
            f"({traced['traced']['cpu_samples_dropped']} dropped), "
            f"{traced['traced']['telemetry.traces']} traces folded")

    print("# config: " + json.dumps(machine_tags(runs[0]["env"]), sort_keys=True))
    print(f"# {args.workload} seed {args.seed}: {len(runs)} timed runs, "
          f"attempted {ref['attempted']} per run, fail_frac {ref['fail_frac']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for f in failures:
        print(f"CHECK FAILED: {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["sim"]["attempted"] for r in runs),
        "failed": sum(r["sim"]["failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
