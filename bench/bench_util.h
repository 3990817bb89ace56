// Shared measurement runners for the paper-figure benchmarks. Each runner
// builds a fresh two-node testbed, drives a workload the way the paper's
// evaluation does (memory polling for completion, ping-pong for write
// latency), and returns simulated-time statistics.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/telemetry.h"
#include "src/testbed/stats.h"
#include "src/testbed/testbed.h"

namespace strom::bench {

// --- observability flags (every bench binary gets these for free) ---------
// bench_main.cc strips these flags before google/benchmark sees argv:
//   --out=<dir>            write the run's artifacts into <dir>, creating it:
//                          metrics.csv (one row per metric of every testbed
//                          built and every reported result) and the files
//                          of the sinks --record selects
//   --record=<sink>[,<sink>...]  turn sinks on; each writes fixed names
//                          under <dir>, so it needs --out:
//       trace       trace.json, a Chrome trace (Perfetto-loadable) of every
//                   message of every testbed built
//       capture     capture[.runN].{wire,fabric,node<i>.nic}.pcapng, taps on
//                   the wire and the NIC boundaries of the first testbed
//                   built (ycsb_rack: of each; inspect with tools/stromtrace
//                   or Wireshark)
//       series      timeseries.csv, queue depths / occupancy / utilization
//                   sampled every simulated microsecond
//       flows       flows.csv, per-QP flow stats (RTT/goodput/retransmit/
//                   CNP counters + a sampled DCQCN timeline; decode:
//                   stromtrace --flows)
//       postmortem  postmortem.{flightrec.bin,metrics.csv,frames.pcapng}, a
//                   flight recorder of recent protocol events dumped at
//                   teardown, or at the first watchdog fire, fatal log,
//                   audit violation or crash (decode: stromtrace
//                   --postmortem <dir>/postmortem)
//   --audit[=warn|abort]   run online conservation auditors on every testbed:
//                          link/port frame conservation, PSN monotonicity,
//                          the CE=>BECN=>CNP ladder, and a FrameBuf leak
//                          sweep at exit. abort (the default) dumps a
//                          post-mortem bundle and aborts on the first
//                          violation; warn keeps running and exits non-zero.
//                          The bundle goes to ./postmortem.*, or with --out
//                          to <dir>/postmortem.* as if postmortem were
//                          recorded.
//   --fault-plan=<file>    load a fault plan (see src/faults/fault_plan.h for
//                          the grammar) and run it against every testbed's
//                          links and DMA engines: burst loss, reordering,
//                          duplication, jitter, link flaps, DMA errors.
//                          Without the flag the fault machinery stays fully
//                          unhooked and traffic is byte-identical.
//   --paranoid             disable the per-packet fast-path caches and
//                          cross-check every cached value against the wire
//                          bytes (equivalent to STROM_PARANOID=1; aborts on
//                          divergence). Simulated output must be identical.
//
// Every sink is off unless --record names it. A usage error prints what is
// wrong and exits 2: --record without --out, a sink --record does not know or
// names twice, an --out directory that cannot be created, and a --jobs
// value that is not an integer in range.

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

// Parses and removes the observability flags (and --jobs) from argv, then
// configures Testbed::telemetry_defaults accordingly.
void InitBenchTelemetry(int* argc, char** argv);

// Writes the collected files into the --out directory, if given, and
// reports the audit. Returns 0 on success, 1 if a file could not be written
// or an audit found a violation.
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

// Runs `sim` until `done()` holds, then checks that it does. A wait can end
// without it: a crash in a --fault-plan can lose the response a poll waits
// for, and a poll that nothing writes schedules no event, so the queue goes
// idle. The check's message names the wait (`what`) and gives the time.
template <typename Pred>
void RunUntilDone(Simulator& sim, const char* what, Pred&& done) {
  STROM_CHECK(sim.RunUntil(done)) << what << " did not finish: the event queue went idle at "
                                  << ToUs(sim.now()) << " us of simulated time";
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
// lands in <--out>/metrics.csv. `name` labels the row (call sites pass
// __func__); parameterized runs are distinguished by their extras columns.
void ReportLatency(benchmark::State& state, const char* name, const LatencyStats& stats,
                   std::initializer_list<std::pair<const char*, double>> extras = {});

// Number of messages needed so a throughput run covers a sensible horizon.
int MessagesForPayload(size_t payload);

}  // namespace strom::bench

#endif  // BENCH_BENCH_UTIL_H_
