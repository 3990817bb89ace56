#include "bench/bench_util.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <memory>

#include "src/common/frame_buf.h"
#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/paranoid.h"
#include "src/faults/fault_plan.h"
#include "src/sim/perf_stats.h"
#include "src/sim/task.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/flow_stats.h"
#include "src/testbed/workload.h"

namespace strom::bench {

namespace {
constexpr Qpn kQp = 1;

std::string g_trace_out;
std::string g_metrics_out;
std::string g_capture_out;
std::string g_perf_out;
SimTime g_sample_interval = 0;
int g_jobs = 1;
int g_threads = 0;  // --threads: LP scheduler workers per testbed (0 = legacy)
std::unique_ptr<Auditor> g_auditor;
FlowStatsSink g_flow_sink;
std::vector<std::pair<std::string, double>> g_perf_extras;
std::chrono::steady_clock::time_point g_wall_start;
double g_sweep_wall_seconds = 0;

// Consumes "--name=value" from argv; returns true and sets *value on match.
bool TakeFlag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') {
    return false;
  }
  *value = arg + n + 1;
  return true;
}

// Parses the integer value of `--name`. A non-integer or out-of-range value
// is a usage error: print the flag and the value and exit 2, never fall back
// to a default the user did not ask for.
int ParseIntFlag(const char* name, const std::string& value, long min_value) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || errno == ERANGE || v < min_value || v > INT_MAX) {
    std::fprintf(stderr, "invalid value for %s: '%s' (expected an integer from %ld to %d)\n",
                 name, value.c_str(), min_value, INT_MAX);
    std::exit(2);
  }
  return static_cast<int>(v);
}

struct SweepPoint {
  std::string key;
  std::function<std::vector<double>()> fn;
  std::vector<double> result;
};

std::vector<SweepPoint>& SweepPoints() {
  static std::vector<SweepPoint> points;
  return points;
}

}  // namespace

TelemetryCollector& Collector() {
  static TelemetryCollector collector;
  return collector;
}

int SweepJobs() { return g_jobs; }

void DefineSweepPoint(std::string key, std::function<std::vector<double>()> fn) {
  SweepPoints().push_back(SweepPoint{std::move(key), std::move(fn), {}});
}

const std::vector<double>& SweepResult(const std::string& key) {
  std::vector<SweepPoint>& points = SweepPoints();
  static bool ran = false;
  if (!ran) {
    ran = true;
    const auto start = std::chrono::steady_clock::now();
    ParallelFor(points.size(), g_jobs, [&points](size_t i) {
      // The ordinal makes every side effect of the point (run labels,
      // collector merge order, capture gating) a function of its position in
      // the sweep, independent of worker scheduling.
      Testbed::run_ordinal = static_cast<int64_t>(i);
      points[i].result = points[i].fn();
      Testbed::run_ordinal = -1;
    });
    g_sweep_wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
  for (const SweepPoint& p : points) {
    if (p.key == key) {
      return p.result;
    }
  }
  STROM_CHECK(false) << "unknown sweep point: " << key;
  static const std::vector<double> empty;
  return empty;
}

void InitBenchTelemetry(int* argc, char** argv) {
  g_wall_start = std::chrono::steady_clock::now();
  std::string sample = "1";
  std::string capture_runs = "1";
  std::string sample_interval_us = "0";
  std::string jobs = "1";
  std::string threads = "0";
  std::string fault_plan_path;
  std::string audit_mode;
  std::string postmortem_stem;
  bool audit = false;
  bool flow_stats = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (TakeFlag(argv[i], "--trace-out", &g_trace_out) ||
        TakeFlag(argv[i], "--metrics-out", &g_metrics_out) ||
        TakeFlag(argv[i], "--trace-sample", &sample) ||
        TakeFlag(argv[i], "--capture-out", &g_capture_out) ||
        TakeFlag(argv[i], "--capture-runs", &capture_runs) ||
        TakeFlag(argv[i], "--sample-interval-us", &sample_interval_us) ||
        TakeFlag(argv[i], "--jobs", &jobs) ||
        TakeFlag(argv[i], "--threads", &threads) ||
        TakeFlag(argv[i], "--perf-out", &g_perf_out) ||
        TakeFlag(argv[i], "--fault-plan", &fault_plan_path) ||
        TakeFlag(argv[i], "--postmortem-out", &postmortem_stem)) {
      continue;  // telemetry flag: keep it away from google/benchmark
    }
    if (std::strcmp(argv[i], "--paranoid") == 0) {
      SetParanoidMode(true);  // disable fast-path caches, cross-check them
      continue;
    }
    if (std::strcmp(argv[i], "--audit") == 0 ||
        TakeFlag(argv[i], "--audit", &audit_mode)) {
      audit = true;
      continue;
    }
    if (std::strcmp(argv[i], "--flow-stats") == 0) {
      flow_stats = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  g_jobs = ParseIntFlag("--jobs", jobs, 1);
  g_threads = ParseIntFlag("--threads", threads, 0);
  const int sample_every = ParseIntFlag("--trace-sample", sample, 1);
  const int capture_run_count = ParseIntFlag("--capture-runs", capture_runs, 1);
  g_sample_interval = Us(ParseIntFlag("--sample-interval-us", sample_interval_us, 0));

  // Oversubscription guard: each sweep job runs its own testbed, and with
  // --threads each testbed spins up its own LP worker pool, so the process
  // wants jobs x threads runnable threads. Clamp --jobs first (sweep points
  // are independent, so fewer jobs only serializes them); an explicit
  // --threads above the hardware budget is honored — output is byte-identical
  // at any thread count, only wall clock suffers — but warned about.
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int per_point = std::max(1, g_threads);
  if (g_jobs * per_point > hw) {
    const int clamped = std::max(1, hw / per_point);
    if (clamped < g_jobs) {
      STROM_LOG(kWarning) << "--jobs=" << g_jobs << " x --threads=" << per_point
                          << " oversubscribes " << hw
                          << " hardware thread(s); clamping --jobs to " << clamped;
      g_jobs = clamped;
    }
    if (g_jobs * per_point > hw) {
      STROM_LOG(kWarning) << "--threads=" << per_point
                          << " exceeds hardware concurrency (" << hw
                          << "); honoring it (results are identical at any "
                             "thread count) but wall clock will suffer";
    }
  }

  TestbedTelemetryDefaults& defaults = Testbed::telemetry_defaults;
  defaults.lp_threads = g_threads;
  defaults.enable_trace = !g_trace_out.empty();
  defaults.sample_every = sample_every;
  defaults.capture_prefix = g_capture_out;
  defaults.capture_runs = capture_run_count;
  defaults.sample_interval = g_sample_interval;
  if (!g_trace_out.empty() || !g_metrics_out.empty()) {
    defaults.collector = &Collector();
  }
  if (!fault_plan_path.empty()) {
    Result<FaultPlan> plan = FaultPlan::Load(fault_plan_path);
    STROM_CHECK(plan.ok()) << "--fault-plan: " << plan.status();
    defaults.fault_plan = std::make_shared<const FaultPlan>(std::move(*plan));
  }
  if (audit) {
    STROM_CHECK(audit_mode.empty() || audit_mode == "warn" || audit_mode == "abort")
        << "--audit accepts 'warn' or 'abort', got: " << audit_mode;
    g_auditor = std::make_unique<Auditor>(
        audit_mode == "warn" ? Auditor::Mode::kWarn : Auditor::Mode::kAbort);
    defaults.auditor = g_auditor.get();
    // Audited runs keep a flight recorder so a violation leaves a decodable
    // post-mortem bundle behind, not just a log line.
    defaults.flight_recorder = true;
  }
  if (flow_stats) {
    defaults.flow_sink = &g_flow_sink;
  }
  defaults.postmortem_stem = postmortem_stem;
  if (!postmortem_stem.empty()) {
    defaults.flight_recorder = true;
  }
}

namespace {

// Simulator-performance report (BENCH_simperf.json in CI): how fast the
// simulator itself ran, as opposed to the simulated metrics it produced.
int WritePerfReport(const std::string& path) {
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - g_wall_start).count();
  const SimPerfStats& stats = GlobalSimPerfStats();
  const double events = static_cast<double>(stats.events_processed.load());
  const double frames = static_cast<double>(stats.frames_sent.load());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    STROM_LOG(kError) << "cannot open perf report file: " << path;
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"jobs\": %d,\n"
               "  \"threads\": %d,\n"
               "  \"wall_seconds\": %.3f,\n"
               "  \"sweep_wall_seconds\": %.3f,\n"
               "  \"events_processed\": %.0f,\n"
               "  \"frames_sent\": %.0f,\n"
               "  \"events_per_sec\": %.0f,\n"
               "  \"frames_per_sec\": %.0f",
               g_jobs, g_threads, wall, g_sweep_wall_seconds, events, frames,
               wall > 0 ? events / wall : 0.0, wall > 0 ? frames / wall : 0.0);
  // Scaling-curve key: the same run at --threads=N lands under a distinct
  // name, so merged reports carry events_per_sec_t{1,2,4,8} side by side and
  // perfdiff can gate each point of the curve (t1 doubles as the legacy
  // single-queue key when --threads is absent).
  std::fprintf(f, ",\n  \"events_per_sec_t%d\": %.0f", std::max(1, g_threads),
               wall > 0 ? events / wall : 0.0);
  for (const auto& [key, value] : g_perf_extras) {
    std::fprintf(f, ",\n  \"%s\": %.3f", key.c_str(), value);
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  return 0;
}

}  // namespace

void RecordPerfExtra(const std::string& key, double value) {
  g_perf_extras.emplace_back(key, value);
}

int ExportBenchTelemetry() {
  int rc = 0;
  if (!g_perf_out.empty()) {
    rc |= WritePerfReport(g_perf_out);
  }
  if (!g_trace_out.empty()) {
    Status st = Collector().WriteChromeTrace(g_trace_out);
    if (!st.ok()) {
      STROM_LOG(kError) << "trace export failed: " << st;
      rc = 1;
    }
  }
  if (!g_metrics_out.empty()) {
    Status st = Collector().WriteMetrics(g_metrics_out);
    if (!st.ok()) {
      STROM_LOG(kError) << "metrics export failed: " << st;
      rc = 1;
    }
    if (g_sample_interval > 0) {
      // Derive the sibling file: strip a trailing .csv/.json before appending.
      std::string stem = g_metrics_out;
      const size_t dot = stem.rfind('.');
      if (dot != std::string::npos && stem.find('/', dot) == std::string::npos) {
        stem.resize(dot);
      }
      st = Collector().WriteTimeSeries(stem + ".timeseries.csv");
      if (!st.ok()) {
        STROM_LOG(kError) << "time-series export failed: " << st;
        rc = 1;
      }
    }
    if (!g_flow_sink.empty()) {
      std::string stem = g_metrics_out;
      const size_t dot = stem.rfind('.');
      if (dot != std::string::npos && stem.find('/', dot) == std::string::npos) {
        stem.resize(dot);
      }
      st = g_flow_sink.WriteCsv(stem + ".flows.csv");
      if (!st.ok()) {
        STROM_LOG(kError) << "flow-stats export failed: " << st;
        rc = 1;
      }
    }
  }
  if (g_auditor != nullptr) {
    // End-of-process FrameBuf leak sweep: every testbed is gone by now, so a
    // non-zero outstanding count is a frame block that escaped its run.
    const uint64_t outstanding = FrameBlocksOutstanding();
    g_auditor->Expect(outstanding == 0,
                      "frame pool leak: " + std::to_string(outstanding) +
                          " blocks still outstanding at exit");
    std::fprintf(stderr, "[audit] %llu checks, %llu violations\n",
                 static_cast<unsigned long long>(g_auditor->checks()),
                 static_cast<unsigned long long>(g_auditor->violations()));
    if (g_auditor->violations() > 0) {
      rc = 1;
    }
  }
  return rc;
}

LatencyStats MeasureWriteLatency(const Profile& profile, size_t payload, int rounds) {
  Testbed bed(profile);
  bed.ConnectQp(0, kQp, 1, kQp);
  const VirtAddr src0 = bed.node(0).driver().AllocBuffer(MiB(2))->addr;
  const VirtAddr ping = bed.node(1).driver().AllocBuffer(MiB(2))->addr;  // on node 1
  const VirtAddr src1 = bed.node(1).driver().AllocBuffer(MiB(2))->addr;
  const VirtAddr pong = bed.node(0).driver().AllocBuffer(MiB(2))->addr;  // on node 0

  ByteBuffer fill = RandomBytes(payload, 1);
  STROM_CHECK(bed.node(0).driver().WriteHost(src0, fill).ok());
  STROM_CHECK(bed.node(1).driver().WriteHost(src1, fill).ok());

  LatencyStats stats;
  bool finished = false;

  struct Ctx {
    Testbed& bed;
    size_t payload;
    int rounds;
    VirtAddr src0, ping, src1, pong;
    LatencyStats* stats;
    bool* finished;
  };
  const Ctx ctx{bed, payload, rounds, src0, ping, src1, pong, &stats, &finished};

  // Remote side: poll the ping buffer, bounce the payload back.
  auto responder = [](Ctx c) -> Task {
    RoceDriver& drv = c.bed.node(1).driver();
    const VirtAddr seq_addr = c.ping + c.payload - 8;
    for (int r = 1; r <= c.rounds; ++r) {
      auto poll = drv.PollU64(seq_addr, static_cast<uint64_t>(r - 1));
      const uint64_t seq = co_await poll;
      drv.WriteHostU64(c.src1 + c.payload - 8, seq);
      drv.PostWrite(kQp, c.src1, c.pong, static_cast<uint32_t>(c.payload));
    }
  };

  auto initiator = [](Ctx c) -> Task {
    RoceDriver& drv = c.bed.node(0).driver();
    const VirtAddr seq_addr = c.pong + c.payload - 8;
    for (int r = 1; r <= c.rounds; ++r) {
      drv.WriteHostU64(c.src0 + c.payload - 8, static_cast<uint64_t>(r));
      const SimTime start = c.bed.sim().now();
      drv.PostWrite(kQp, c.src0, c.ping, static_cast<uint32_t>(c.payload));
      auto poll = drv.PollU64(seq_addr, static_cast<uint64_t>(r - 1));
      co_await poll;
      const SimTime rtt = c.bed.sim().now() - start;
      c.stats->Add(rtt / 2);
    }
    *c.finished = true;
  };

  // Start both sequence words from 0 before either side runs: in
  // conservative-parallel mode each node's memory belongs to its own LP, so
  // cross-node setup writes must happen here on the main thread, not inside
  // the initiator coroutine (which executes on node 0's worker).
  bed.node(1).driver().WriteHostU64(ping + payload - 8, 0);
  bed.node(0).driver().WriteHostU64(pong + payload - 8, 0);

  // Each side's coroutine touches only its own node's memory and driver, so
  // spawn it on that node's simulator (= its logical process under --threads).
  bed.node(1).sim().Spawn(responder(ctx));
  bed.node(0).sim().Spawn(initiator(ctx));
  bed.sim().RunUntil([&] { return finished; });
  STROM_CHECK(finished) << "ping-pong stalled";
  return stats;
}

LatencyStats MeasureReadLatency(const Profile& profile, size_t payload, int rounds) {
  Testbed bed(profile);
  bed.ConnectQp(0, kQp, 1, kQp);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(2))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(2))->addr;
  STROM_CHECK(bed.node(1).driver().WriteHost(remote, RandomBytes(payload, 2)).ok());

  LatencyStats stats;
  bool finished = false;
  struct Ctx {
    Testbed& bed;
    size_t payload;
    int rounds;
    VirtAddr local, remote;
    LatencyStats* stats;
    bool* finished;
  };
  auto reader = [](Ctx c) -> Task {
    RoceDriver& drv = c.bed.node(0).driver();
    for (int r = 0; r < c.rounds; ++r) {
      const SimTime start = c.bed.sim().now();
      auto read = drv.Read(kQp, c.local, c.remote, static_cast<uint32_t>(c.payload));
      Status st = co_await read;
      STROM_CHECK(st.ok()) << st;
      c.stats->Add(c.bed.sim().now() - start);
    }
    *c.finished = true;
  };
  bed.sim().Spawn(reader(Ctx{bed, payload, rounds, local, remote, &stats, &finished}));
  bed.sim().RunUntil([&] { return finished; });
  STROM_CHECK(finished);
  return stats;
}

namespace {

Throughput MeasureThroughput(const Profile& profile, size_t payload, int messages, int window,
                             bool is_read) {
  Testbed bed(profile);
  bed.ConnectQp(0, kQp, 1, kQp);
  // Cycle over an 8 MiB region so messages hit distinct addresses.
  const size_t region = MiB(8);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(region + payload)->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(region + payload)->addr;
  if (is_read) {
    bed.node(1).driver().FillHost(remote, region, 0x5C);
  } else {
    bed.node(0).driver().FillHost(local, region, 0x5C);
  }

  if (is_read) {
    window = std::min<int>(window, static_cast<int>(profile.roce.multi_queue_total) - 1);
    // Bound in-flight response data to ~2 MiB: enough to saturate the wire
    // (bandwidth-delay product is tens of KiB) without queueing responses
    // for longer than a sane retransmission timeout.
    window = std::max(2, std::min<int>(window, static_cast<int>(MiB(2) / payload)));
  }

  int posted = 0;
  int completed = 0;
  SimTime first_post = -1;
  SimTime last_done = 0;

  std::function<void()> post_next = [&] {
    if (posted >= messages) {
      return;
    }
    const size_t slots = region / std::max<size_t>(payload, 64);
    const VirtAddr offset = (posted % slots) * payload;
    ++posted;
    if (first_post < 0) {
      first_post = bed.sim().now();
    }
    auto done = [&](Status st) {
      STROM_CHECK(st.ok()) << st;
      ++completed;
      last_done = bed.sim().now();
      post_next();
    };
    if (is_read) {
      bed.node(0).driver().PostRead(kQp, local + offset, remote + offset,
                                    static_cast<uint32_t>(payload), done);
    } else {
      bed.node(0).driver().PostWrite(kQp, local + offset, remote + offset,
                                     static_cast<uint32_t>(payload), done);
    }
  };
  for (int i = 0; i < window; ++i) {
    post_next();
  }
  bed.sim().RunUntil([&] { return completed >= messages; });
  STROM_CHECK_EQ(completed, messages);

  const double elapsed_sec = ToSec(last_done - first_post);
  Throughput t;
  t.gbps = static_cast<double>(messages) * static_cast<double>(payload) * 8 / elapsed_sec / 1e9;
  t.mmsg_per_sec = static_cast<double>(messages) / elapsed_sec / 1e6;
  return t;
}

}  // namespace

Throughput MeasureWriteThroughput(const Profile& profile, size_t payload, int messages,
                                  int window) {
  return MeasureThroughput(profile, payload, messages, window, /*is_read=*/false);
}

Throughput MeasureReadThroughput(const Profile& profile, size_t payload, int messages,
                                 int window) {
  return MeasureThroughput(profile, payload, messages, window, /*is_read=*/true);
}

double IdealGoodputGbps(const Profile& profile, size_t payload) {
  const size_t pmtu = RocePayloadPerPacket(profile.link.ip_mtu);
  const size_t full_pkts = payload / pmtu;
  const size_t rem = payload % pmtu;
  // Wire bytes: headers (Eth 14 + IP 20 + UDP 8 + BTH 12 + ICRC 4 = 58, plus
  // RETH 16 on first) + PHY overhead 24 per frame.
  size_t wire = 0;
  size_t pkts = full_pkts + (rem != 0 ? 1 : 0);
  if (pkts == 0) {
    pkts = 1;
  }
  wire += payload + pkts * (58 + 24) + 16;
  const double rate = static_cast<double>(profile.link.rate_bps);
  return static_cast<double>(payload) / static_cast<double>(wire) * rate / 1e9;
}

double IdealMsgRate(const Profile& profile, size_t payload) {
  const double gbps = IdealGoodputGbps(profile, payload);
  return gbps * 1e9 / 8 / static_cast<double>(payload) / 1e6;  // Mmsg/s
}

void ReportLatency(benchmark::State& state, const char* name, const LatencyStats& stats,
                   std::initializer_list<std::pair<const char*, double>> extras) {
  state.counters["median_us"] = ToUs(stats.Median());
  state.counters["p1_us"] = ToUs(stats.P1());
  state.counters["p99_us"] = ToUs(stats.P99());
  for (const auto& [key, value] : extras) {
    state.counters[key] = value;
  }
  if (Testbed::telemetry_defaults.collector != nullptr) {
    MetricsRegistry::Snapshot row;
    row.gauges.emplace_back("median_us", ToUs(stats.Median()));
    row.gauges.emplace_back("p1_us", ToUs(stats.P1()));
    row.gauges.emplace_back("p99_us", ToUs(stats.P99()));
    for (const auto& [key, value] : extras) {
      row.gauges.emplace_back(key, value);
    }
    Testbed::telemetry_defaults.collector->Collect(name, std::move(row));
  }
}

int MessagesForPayload(size_t payload) {
  if (payload <= 512) {
    return 4000;
  }
  if (payload <= KiB(16)) {
    return 1000;
  }
  if (payload <= KiB(256)) {
    return 200;
  }
  return 50;
}

}  // namespace strom::bench
