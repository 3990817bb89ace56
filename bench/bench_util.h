// Shared measurement runners for the paper-figure benchmarks. Each runner
// builds a fresh two-node testbed, drives a workload the way the paper's
// evaluation does (memory polling for completion, ping-pong for write
// latency), and returns simulated-time statistics.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/telemetry.h"
#include "src/testbed/stats.h"
#include "src/testbed/testbed.h"

namespace strom::bench {

// --- telemetry export (every bench binary gets these for free) --------------
// bench_main.cc strips these flags before google/benchmark sees argv:
//   --trace-out=<file>     write a Chrome-trace (Perfetto-loadable) JSON of
//                          every testbed built during the run; enables tracing
//   --trace-sample=<N>     trace 1-in-N messages (default 1 = all); needs
//                          --trace-out
//   --metrics-out=<file>   write per-run metrics; .csv suffix -> CSV else JSON
//   --capture-out=<prefix> tap wire + NIC boundaries into pcapng files named
//                          "<prefix>[.runN].{wire,node<i>.nic}.pcapng"
//                          (inspect with tools/stromtrace or Wireshark)
//   --capture-runs=<N>     capture the first N testbeds built (default 1;
//                          benches build one testbed per iteration); needs
//                          --capture-out
//   --sample-interval-us=<T>  sample queue depths / occupancy / utilization
//                          every T simulated microseconds; rows land next to
//                          --metrics-out as "<stem>.timeseries.csv", so it
//                          needs --metrics-out
//   --paranoid             disable the per-packet fast-path caches and
//                          cross-check every cached value against the wire
//                          bytes (equivalent to STROM_PARANOID=1; aborts on
//                          divergence). Simulated output must be identical.
//   --fault-plan=<file>    load a fault plan (see src/faults/fault_plan.h for
//                          the grammar) and run it against every testbed's
//                          links and DMA engines: burst loss, reordering,
//                          duplication, jitter, link flaps, DMA errors.
//                          Without the flag the fault machinery stays fully
//                          unhooked and traffic is byte-identical.
//   --audit[=warn|abort]   run online conservation auditors on every testbed:
//                          link/port frame conservation, PSN monotonicity,
//                          the CE=>BECN=>CNP ladder, and a FrameBuf leak
//                          sweep at exit. abort (the default) dumps a
//                          post-mortem bundle and aborts on the first
//                          violation; warn keeps running and exits non-zero.
//   --flow-stats           collect per-QP flow stats (RTT/goodput/retransmit/
//                          CNP counters + a sampled DCQCN timeline) per run;
//                          rows land next to --metrics-out as
//                          "<stem>.flows.csv" (decode: stromtrace --flows),
//                          so it needs --metrics-out
//   --postmortem-out=<stem> keep a flight recorder of recent protocol events
//                          and dump "<stem>.{flightrec.bin,metrics.csv,
//                          frames.pcapng}" at teardown — and automatically on
//                          watchdog fire, fatal log, or audit violation
//                          (decode: stromtrace --postmortem <stem>)
//
// The numeric flags (--trace-sample, --capture-runs, --sample-interval-us,
// --jobs) must be integers in range; anything else prints the flag and its
// value and exits 2. A flag given without the flag it needs would run and
// write nothing, so it also exits 2, naming both.

// Checked numeric flag values, shared with scenario runners (ycsb_rack) that
// parse their own flags. A value that is not a whole number (int) or a
// finite number (double) at or above `min_value` — "four", "2e5x", "" — is a
// usage error: print the flag and the value and exit 2, never fall back to a
// default the user did not ask for. Integers are also capped at INT_MAX.
int ParseIntFlag(const char* name, const std::string& value, long min_value);
double ParseDoubleFlag(const char* name, const std::string& value, double min_value);
// Checked on/off flag value: "1" or "0"; anything else ("off", "true", "")
// exits 2 the same way.
bool ParseBoolFlag(const char* name, const std::string& value);

// Process-wide collector that testbeds and ReportLatency deposit into.
TelemetryCollector& Collector();

// Parses and removes telemetry flags from argv, then configures
// Testbed::telemetry_defaults accordingly.
void InitBenchTelemetry(int* argc, char** argv);

// Writes --trace-out / --metrics-out files if requested. Returns 0 on
// success, 1 if a requested file could not be written.
int ExportBenchTelemetry();

// --- deterministic parallel sweep runner ------------------------------------
// bench_main.cc also strips:
//   --jobs=N          run registered sweep points on N worker threads
//                     (default 1 = inline, in registration order). This is
//                     the only parallelism: each simulation runs on one
//                     thread, on one event queue.
//
// A sweep bench registers every (benchmark, argument) point once at
// static-init time and reads results inside the benchmark body. The first
// SweepResult() call executes the whole batch: each point builds its own
// Testbed/Simulator on whichever worker thread picks it up, so points share
// no mutable state, and results are keyed by name — the reported numbers are
// byte-identical for any --jobs value. Sweep benches must build exactly one
// Testbed per point (the ordinal labels runs and gates pcapng capture).

// Registers a sweep point. Keys must be unique per binary; registration
// order fixes the point's ordinal (run label, capture gating, merge order).
void DefineSweepPoint(std::string key, std::function<std::vector<double>()> fn);

// Result of the point registered under `key`; runs the batch on first call.
const std::vector<double>& SweepResult(const std::string& key);

// Completion check for a verb whose result the caller polls for instead (a
// ping-pong WRITE, a StRoM RPC): a crash in a --fault-plan that fails it
// stops the run here, with the verb's error.
void CheckWrite(Status st);

// No deadline for RunUntilDone.
inline constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

// Runs `sim` until `done()` holds, then checks that it does. A wait can end
// without it: a crash in a --fault-plan can lose the response a poll waits
// for, and a poll that nothing writes schedules no event, so the queue goes
// idle. The check's message names the wait (`what`), says whether the queue
// went idle or simulated time passed `deadline`, and gives the time.
template <typename Pred>
void RunUntilDone(Simulator& sim, const char* what, Pred&& done,
                  SimTime deadline = kNoDeadline) {
  const bool held = sim.RunUntil([&] { return done() || sim.now() >= deadline; });
  STROM_CHECK(done()) << what << " did not finish: "
                      << (held ? "simulated time passed its deadline"
                               : "the event queue went idle")
                      << " at " << ToUs(sim.now()) << " us of simulated time";
}

// Median latency of an RDMA WRITE, measured as RTT/2 of the paper's §6.1
// ping-pong (initiator writes, remote polls and writes back, initiator
// polls).
LatencyStats MeasureWriteLatency(const Profile& profile, size_t payload, int rounds);

// Latency of an RDMA READ until the response payload is placed in the
// initiator's memory.
LatencyStats MeasureReadLatency(const Profile& profile, size_t payload, int rounds);

struct Throughput {
  double gbps = 0;          // goodput (payload bits per second)
  double mmsg_per_sec = 0;  // message rate in millions/s
};

// Streams `messages` back-to-back writes (or reads) of `payload` bytes with
// a bounded number outstanding; returns sustained goodput and message rate.
Throughput MeasureWriteThroughput(const Profile& profile, size_t payload, int messages,
                                  int window = 64);
Throughput MeasureReadThroughput(const Profile& profile, size_t payload, int messages,
                                 int window = 64);

// Ideal wire numbers for reference lines (per-frame protocol + PHY overhead
// at the profile's MTU).
double IdealGoodputGbps(const Profile& profile, size_t payload);
double IdealMsgRate(const Profile& profile, size_t payload);

// Registers median/p1/p99 (in microseconds) plus any extra counters as
// benchmark counters, and deposits the same row into the collector so it
// lands in the --metrics-out file. `name` labels the row (call sites pass
// __func__); parameterized runs are distinguished by their extras columns.
void ReportLatency(benchmark::State& state, const char* name, const LatencyStats& stats,
                   std::initializer_list<std::pair<const char*, double>> extras = {});

// Number of messages needed so a throughput run covers a sensible horizon.
int MessagesForPayload(size_t payload);

}  // namespace strom::bench

#endif  // BENCH_BENCH_UTIL_H_
