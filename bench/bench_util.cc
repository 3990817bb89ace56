#include "bench/bench_util.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "src/common/frame_buf.h"
#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/paranoid.h"
#include "src/faults/fault_plan.h"
#include "src/sim/task.h"
#include "src/telemetry/audit.h"
#include "src/testbed/workload.h"

namespace strom::bench {

void CheckWrite(Status st) { STROM_CHECK(st.ok()) << st; }

namespace {
constexpr Qpn kQp = 1;

std::string g_out;  // --out: where the collector writes; empty = nowhere
int g_jobs = 1;
std::unique_ptr<Auditor> g_auditor;

// What --record can turn on.
constexpr const char* kSinks[] = {"trace", "capture", "series", "flows", "postmortem"};

// Consumes "--name=value" from argv; returns true and sets *value on match.
template <typename S>
bool TakeFlag(const char* arg, const char* name, S* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') {
    return false;
  }
  *value = arg + n + 1;
  return true;
}

[[noreturn]] void UsageError(const std::string& what) {
  std::fprintf(stderr, "%s\n", what.c_str());
  std::exit(2);
}

// The comma-separated sinks of --record, each known and named once.
std::vector<std::string> ParseSinks(const std::string& list) {
  std::vector<std::string> sinks;
  size_t begin = 0;
  while (true) {
    const size_t end = std::min(list.find(',', begin), list.size());
    const std::string sink = list.substr(begin, end - begin);
    if (std::find(std::begin(kSinks), std::end(kSinks), sink) == std::end(kSinks)) {
      UsageError("--record: unknown sink '" + sink +
                 "' (expected trace, capture, series, flows or postmortem)");
    }
    if (std::find(sinks.begin(), sinks.end(), sink) != sinks.end()) {
      UsageError("--record: sink '" + sink + "' named twice");
    }
    sinks.push_back(sink);
    if (end == list.size()) {
      return sinks;
    }
    begin = end + 1;
  }
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

double ParseDoubleFlag(const char* name, const std::string& value, double min_value) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || errno == ERANGE || !std::isfinite(v) || v < min_value) {
    std::fprintf(stderr, "invalid value for %s: '%s' (expected a number >= %g)\n", name,
                 value.c_str(), min_value);
    std::exit(2);
  }
  return v;
}

bool ParseBoolFlag(const char* name, const std::string& value) {
  if (value != "0" && value != "1") {
    std::fprintf(stderr, "invalid value for %s: '%s' (expected 0 or 1)\n", name, value.c_str());
    std::exit(2);
  }
  return value == "1";
}

void DefineSweepPoint(std::string key, std::function<std::vector<double>()> fn) {
  SweepPoints().push_back(SweepPoint{std::move(key), std::move(fn), {}});
}

const std::vector<double>& SweepResult(const std::string& key) {
  std::vector<SweepPoint>& points = SweepPoints();
  static bool ran = false;
  if (!ran) {
    ran = true;
    ParallelFor(points.size(), g_jobs, [&points](size_t i) {
      // The ordinal makes every side effect of the point (run labels,
      // collector merge order, capture gating) a function of its position in
      // the sweep, independent of worker scheduling.
      Testbed::run_ordinal = static_cast<int64_t>(i);
      points[i].result = points[i].fn();
      Testbed::run_ordinal = -1;
    });
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
  std::optional<std::string> out_dir;
  std::optional<std::string> record;
  std::string jobs = "1";
  std::string fault_plan_path;
  std::string audit_mode;
  bool audit = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (TakeFlag(argv[i], "--out", &out_dir) || TakeFlag(argv[i], "--record", &record) ||
        TakeFlag(argv[i], "--jobs", &jobs) ||
        TakeFlag(argv[i], "--fault-plan", &fault_plan_path)) {
      continue;  // our flag: keep it away from google/benchmark
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
    argv[out++] = argv[i];
  }
  *argc = out;
  g_jobs = ParseIntFlag("--jobs", jobs, 1);
  const std::vector<std::string> sinks = record.has_value() ? ParseSinks(*record)
                                                            : std::vector<std::string>{};
  if (record.has_value() && !out_dir.has_value()) {
    UsageError("--record needs --out: the sinks write their files there");
  }
  const auto recorded = [&sinks](const char* sink) {
    return std::find(sinks.begin(), sinks.end(), sink) != sinks.end();
  };

  TestbedTelemetryDefaults& defaults = Testbed::telemetry_defaults;
  if (out_dir.has_value()) {
    std::error_code ec;
    std::filesystem::create_directories(*out_dir, ec);
    if (out_dir->empty() || !std::filesystem::is_directory(*out_dir)) {
      UsageError("--out: cannot create directory '" + *out_dir + "'" +
                 (ec ? ": " + ec.message() : ""));
    }
    g_out = *out_dir;
    const std::string at = g_out + "/";
    defaults.collector = &Collector();
    defaults.enable_trace = recorded("trace");
    if (recorded("capture")) {
      defaults.capture_prefix = at + "capture";
    }
    if (recorded("series")) {
      defaults.sample_interval = Us(1);
    }
    defaults.flow_stats = recorded("flows");
    if (recorded("postmortem") || audit) {
      defaults.postmortem_stem = at + "postmortem";
    }
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
}

int ExportBenchTelemetry() {
  int rc = 0;
  if (!g_out.empty()) {
    const Status st = Collector().WriteFiles(g_out);
    if (!st.ok()) {
      STROM_LOG(kError) << "telemetry export failed: " << st;
      rc = 1;
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
      drv.PostWrite(kQp, c.src1, c.pong, static_cast<uint32_t>(c.payload), CheckWrite);
    }
  };

  auto initiator = [](Ctx c) -> Task {
    RoceDriver& drv = c.bed.node(0).driver();
    const VirtAddr seq_addr = c.pong + c.payload - 8;
    for (int r = 1; r <= c.rounds; ++r) {
      drv.WriteHostU64(c.src0 + c.payload - 8, static_cast<uint64_t>(r));
      const SimTime start = c.bed.sim().now();
      drv.PostWrite(kQp, c.src0, c.ping, static_cast<uint32_t>(c.payload), CheckWrite);
      auto poll = drv.PollU64(seq_addr, static_cast<uint64_t>(r - 1));
      co_await poll;
      const SimTime rtt = c.bed.sim().now() - start;
      c.stats->Add(rtt / 2);
    }
    *c.finished = true;
  };

  // Start both sequence words from 0 before either side runs.
  bed.node(1).driver().WriteHostU64(ping + payload - 8, 0);
  bed.node(0).driver().WriteHostU64(pong + payload - 8, 0);

  // Each side's coroutine touches only its own node's memory and driver.
  bed.node(1).sim().Spawn(responder(ctx));
  bed.node(0).sim().Spawn(initiator(ctx));
  RunUntilDone(bed.sim(), "the write ping-pong", [&] { return finished; });
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
  RunUntilDone(bed.sim(), "the READ latency rounds", [&] { return finished; });
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
  RunUntilDone(bed.sim(), is_read ? "the READ stream" : "the WRITE stream",
               [&] { return completed >= messages; });

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
