// stromperf: runs one benchmark workload once, in this process, and prints
// its measurements as one JSON object on stdout. perfbench/run.py builds it,
// runs it several times per seed and turns the runs into the benchmark's
// metrics; see perfbench/README.md for the workloads and the metric table.
//
//   stromperf --workload=<rack_mixed|rack_incast|shuffle_stream> --seed=<n>
//             [--traced]
//
// An untraced run reads every layer's public counters after the simulation
// returns and times the phases with a steady clock; nothing is armed while the
// simulation runs. --traced additionally enables the simulator's sampled span
// tracer (through TestbedTelemetryDefaults, before the topology is built) and
// a SIGPROF stack sampler around the simulation phase.
//
// Correctness gates that fail are listed under "errors"; the process then
// exits with status 3 after printing the object.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cpu_sampler.h"
#include "span_fold.h"
#include "src/common/frame_buf.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/kernels/shuffle.h"
#include "src/sim/task.h"
#include "src/testbed/testbed.h"
#include "src/workload/ycsb.h"

namespace perfbench {
namespace {

using namespace strom;

constexpr int kSamplerHz = 1000;

double Seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Ordered JSON object writer; values are emitted with every digit so repeated
// runs can be compared bit for bit.
class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Int(const std::string& key, uint64_t v) { Raw(key, std::to_string(v)); }
  void Str(const std::string& key, const std::string& v) { Raw(key, "\"" + v + "\""); }
  void Raw(const std::string& key, std::string v) { kv_.emplace_back(key, std::move(v)); }
  std::string Dump() const {
    std::string out = "{";
    for (size_t i = 0; i < kv_.size(); ++i) {
      out += (i ? ", \"" : "\"") + kv_[i].first + "\": " + kv_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

struct RunOutput {
  JsonObject sim;     // simulated results and layer counts: identical per seed
  JsonObject host;    // host-time phases and memory
  JsonObject traced;  // traced run only
  std::vector<std::string> errors;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      errors.push_back(what);
    }
  }
};

// Sums of every layer's public counters over one topology.
struct LayerCounts {
  RoceCounters roce;
  DmaCounters dma;
  EngineCounters strom;
  uint64_t frames_forwarded = 0;
  uint64_t ce_marked = 0;
  uint64_t tail_drops = 0;
  uint64_t queue_bytes_peak = 0;
  uint64_t link_frames_sent = 0;
  uint64_t link_frames_dropped = 0;

  void AddNode(Node& node) {
    const RoceCounters& r = node.stack().counters();
    roce.tx_packets += r.tx_packets;
    roce.retransmitted_packets += r.retransmitted_packets;
    roce.timeouts += r.timeouts;
    roce.rx_cnp += r.rx_cnp;
    roce.dcqcn_rate_cuts += r.dcqcn_rate_cuts;
    roce.pacing_deferrals += r.pacing_deferrals;
    const DmaCounters& d = node.dma().counters();
    dma.read_commands += d.read_commands;
    dma.write_commands += d.write_commands;
    dma.bytes_read += d.bytes_read;
    dma.bytes_written += d.bytes_written;
    dma.segment_splits += d.segment_splits;
    const EngineCounters& e = node.engine().counters();
    strom.rpcs_dispatched += e.rpcs_dispatched;
    strom.kernel_dma_reads += e.kernel_dma_reads;
    strom.kernel_dma_writes += e.kernel_dma_writes;
  }
  void AddLink(const PointToPointLink& link) {
    for (int side = 0; side < 2; ++side) {
      link_frames_sent += link.counters(side).frames_sent;
      link_frames_dropped += link.counters(side).frames_dropped;
    }
  }
  void AddSwitch(FabricSwitch& sw) {
    frames_forwarded += sw.frames_forwarded();
    for (int p = 0; p < sw.num_ports(); ++p) {
      const FabricPortCounters& c = sw.counters(p);
      ce_marked += c.ce_marked;
      tail_drops += c.tail_drops;
      queue_bytes_peak = std::max(queue_bytes_peak, c.queue_bytes_peak);
      if (sw.OwnsPortLink(p)) {
        AddLink(sw.PortLink(p));
      }
    }
  }

  void Emit(JsonObject& out) const {
    out.Int("roce.tx_packets", roce.tx_packets);
    out.Int("roce.retransmitted_packets", roce.retransmitted_packets);
    out.Int("roce.timeouts", roce.timeouts);
    out.Int("roce.rx_cnp", roce.rx_cnp);
    out.Int("roce.dcqcn_rate_cuts", roce.dcqcn_rate_cuts);
    out.Int("roce.pacing_deferrals", roce.pacing_deferrals);
    out.Num("roce.useful_tx_ratio",
            roce.tx_packets == 0 ? 1.0
                                 : double(roce.tx_packets - roce.retransmitted_packets) /
                                       double(roce.tx_packets));
    out.Int("fabric.frames_forwarded", frames_forwarded);
    out.Int("fabric.ce_marked", ce_marked);
    out.Int("fabric.tail_drops", tail_drops);
    out.Int("fabric.queue_bytes_peak", queue_bytes_peak);
    out.Int("netsim.frames_sent", link_frames_sent);
    out.Int("netsim.frames_dropped", link_frames_dropped);
    out.Int("pcie.dma_commands", dma.read_commands + dma.write_commands);
    out.Int("pcie.dma_bytes", dma.bytes_read + dma.bytes_written);
    out.Int("pcie.segment_splits", dma.segment_splits);
    out.Int("strom.rpcs_dispatched", strom.rpcs_dispatched);
    out.Int("strom.kernel_dma_reads", strom.kernel_dma_reads);
    out.Int("strom.kernel_dma_writes", strom.kernel_dma_writes);
  }
};

// Simulated length of one slice of the simulation phase.
constexpr SimTime kSlice = Ms(1);

// Host-time phases of one run, plus the counters that need a before/after.
struct Phases {
  double t_start = Seconds();
  double t_built = 0;
  double t_setup = 0;
  double t_teardown = 0;
  double mem_fill_s = 0;
  uint64_t events = 0;
  FramePoolStats pool_before;
  FramePoolStats pool_after;
  // Host clock at the start of the simulation phase, at the end of every
  // kSlice of simulated time, and at its end. Runs of one seed do identical
  // work between two stamps, so run.py can take each slice from its fastest
  // run: interference from other work on a shared host comes in bursts
  // shorter than a run and rarely hits one slice in every run.
  std::vector<double> stamps;

  void Stamp() { stamps.push_back(Seconds()); }
  double run_s() const { return stamps.back() - stamps.front(); }

  // Call after the topology is destroyed.
  void Emit(RunOutput& out) const {
    const double t_torn_down = Seconds();
    out.host.Num("phase.build_s", t_built - t_start);
    out.host.Num("phase.setup_s", t_setup - t_built);
    out.host.Num("phase.run_s", run_s());
    std::string slices = "[";
    for (size_t i = 1; i < stamps.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%s%.9f", i > 1 ? ", " : "", stamps[i] - stamps[i - 1]);
      slices += buf;
    }
    out.host.Raw("run_slices_s", slices + "]");
    out.host.Num("phase.teardown_s", t_torn_down - t_teardown);
    out.host.Num("pcie.mem_fill_s", mem_fill_s);
    out.host.Num("sim.ns_per_event", events == 0 ? 0.0 : run_s() * 1e9 / double(events));
    out.sim.Int("sim.events", events);
    const uint64_t allocs = pool_after.allocations - pool_before.allocations;
    const uint64_t reuses = pool_after.reuses - pool_before.reuses;
    out.sim.Int("common.frame_allocs", allocs);
    out.sim.Num("common.frame_reuse_ratio",
                allocs + reuses == 0 ? 0.0 : double(reuses) / double(allocs + reuses));
  }
};

// `span` is the simulated time the payload is charged to.
void EmitLatency(RunOutput& out, const LatencyStats& lat, double payload_bits, SimTime span) {
  out.Check(lat.count() > 0 && span > 0, "no latency samples");
  if (lat.count() == 0 || span == 0) {
    return;
  }
  out.sim.Int("op_samples", lat.count());
  out.sim.Num("op_p50_us", ToUs(lat.Percentile(50)));
  out.sim.Num("op_p999_us", ToUs(lat.Percentile(99.9)));
  out.sim.Num("goodput_gbps", payload_bits / ToSec(span) / 1e9);
}

void EmitTrace(RunOutput& out, const Tracer& tracer) {
  const StageTimes st = FoldSpans(tracer);
  out.Check(st.extent > 0, "traced run recorded no spans");
  for (int s = 0; s < kNumStages; ++s) {
    out.traced.Num(std::string("simtime.") + kStageNames[s],
                   st.extent == 0 ? 0.0 : double(st.self[s]) / double(st.extent));
  }
  out.traced.Int("telemetry.spans", tracer.events().size());
  out.traced.Int("telemetry.traces", st.traces);
  std::string stacks = "[";
  for (const auto& [frames, count] : FoldCpuSamples()) {
    stacks += (stacks.size() > 1 ? ", [" : "[") + std::to_string(count) + ", [";
    for (size_t i = 0; i < frames.size(); ++i) {
      stacks += (i ? ", " : "") + std::to_string(frames[i]);
    }
    stacks += "]]";
  }
  out.traced.Raw("cpu_stacks", stacks + "]");
  out.traced.Int("cpu_samples_dropped", DroppedCpuSamples());
}

// ---------------------------------------------------------------------------
// Rack workloads: the open-loop YCSB engine on a Fabric (ycsb_rack's code
// path), with ECN marking and DCQCN on.

struct RackSpec {
  int hosts;
  int leaves;
  int spines;
  bool incast;
  double ops_per_host_per_sec;
  uint32_t outstanding;
  SimTime duration;
  size_t ecn_threshold_bytes;
  size_t egress_queue_bytes;
};

// ycsb_rack --hosts=16 --leaves=4 --spines=2 --ops-rate=300000 --outstanding=128
//           --duration-us=20000 --ecn-threshold=65536 --queue-bytes=262144
// At 500k ops/s, or with 16 KB ECN thresholds, some seeds' zipf hot spots
// reach the marking threshold; this load and buffer keep the congestion path
// idle on every seed.
constexpr RackSpec kRackMixed{16, 4, 2, false, 300'000, 128, Ms(20), 64 * 1024, 256 * 1024};
// ycsb_rack --incast --ops-rate=1000000 --outstanding=256 --duration-us=40000
//           --queue-bytes=262144
// Three writers offer about 1.5x what host 0's port carries, so every seed
// marks, cuts rates and paces, and latency is backlog growing at the rate
// DCQCN leaves. Near saturation (the --compare arm's 700k) and with a 40 KB
// queue, tail drops and retransmit timeouts make p50 and p999 move by 10-20%
// from seed to seed; this regime keeps them within about 2%.
constexpr RackSpec kRackIncast{4, 1, 0, true, 1'000'000, 256, Ms(40), 16 * 1024, 256 * 1024};
constexpr uint32_t kRackTraceSampleEvery = 16;

void RunRack(const RackSpec& spec, uint64_t seed, bool traced, RunOutput& out) {
  YcsbConfig cfg;
  cfg.seed = seed;
  cfg.incast = spec.incast;
  cfg.ops_per_host_per_sec = spec.ops_per_host_per_sec;
  cfg.max_outstanding_per_host = spec.outstanding;
  cfg.duration = spec.duration;

  Profile profile = Profile10G();
  profile.roce.max_qps = static_cast<uint32_t>(spec.hosts) * cfg.qps_per_peer + 8;
  profile.roce.ecn_capable = true;
  profile.roce.dcqcn.enable = true;
  FabricTopologyConfig topo;
  topo.num_hosts = spec.hosts;
  topo.num_leaves = spec.leaves;
  topo.num_spines = spec.spines;
  topo.sw.egress_queue_bytes = spec.egress_queue_bytes;
  topo.sw.ecn_threshold_bytes = spec.ecn_threshold_bytes;

  Testbed::telemetry_defaults.enable_trace = traced;
  Testbed::telemetry_defaults.sample_every = kRackTraceSampleEvery;

  Phases ph;
  auto fabric = std::make_unique<Fabric>(profile, topo);
  ph.t_built = Seconds();
  auto engine = std::make_unique<YcsbEngine>(*fabric, cfg);
  engine->Setup();
  ph.t_setup = Seconds();

  Simulator& sim = fabric->sim();
  const uint64_t events_before = sim.events_processed();
  // Run() drains every event up to its guard at 3x the arrival window, so
  // each of these stamps fires and none extends the run.
  uint64_t stamp_events = 0;
  for (SimTime t = sim.now() + kSlice; t < cfg.duration * 3; t += kSlice) {
    sim.ScheduleAt(t, [&ph] { ph.Stamp(); });
    ++stamp_events;
  }
  ph.pool_before = GetFramePoolStats();
  if (traced) {
    StartCpuSampler(kSamplerHz);
  }
  ph.Stamp();
  const YcsbReport r = engine->Run();
  ph.Stamp();
  if (traced) {
    StopCpuSampler();
  }
  ph.pool_after = GetFramePoolStats();
  ph.events = sim.events_processed() - events_before - stamp_events;
  out.Check(ph.stamps.size() == stamp_events + 2, "a slice stamp did not fire");

  const uint64_t failed = r.ops_failed + r.ops_fenced;
  out.sim.Int("attempted", r.ops_arrived);
  out.sim.Int("completed", r.ops_completed);
  out.sim.Int("failed", failed);
  out.sim.Num("fail_frac", r.ops_arrived == 0 ? 1.0 : double(failed) / double(r.ops_arrived));
  out.Check(r.ops_arrived > 0, "no ops arrived");
  out.Check(r.ops_arrived == r.ops_completed + r.ops_failed + r.ops_fenced,
            "arrived != completed + failed + fenced");
  out.Check(!r.deadline_hit, "drain deadline hit");
  out.Check(failed == 0, "ops failed or fenced in a fault-free run");
  const double payload_bits = double(r.reads + r.writes + r.gets) * cfg.value_bytes * 8;
  // Over the arrival window: Run() leaves the clock at its 3x-duration guard.
  EmitLatency(out, r.all, payload_bits, cfg.duration);

  LayerCounts counts;
  for (int i = 0; i < fabric->num_hosts(); ++i) {
    counts.AddNode(fabric->node(i));
  }
  for (int i = 0; i < fabric->num_leaves(); ++i) {
    counts.AddSwitch(fabric->leaf(i));
  }
  for (int i = 0; i < fabric->num_spines(); ++i) {
    counts.AddSwitch(fabric->spine(i));
  }
  counts.Emit(out.sim);
  if (traced) {
    EmitTrace(out, fabric->telemetry().tracer);
  }

  ph.t_teardown = Seconds();
  engine.reset();
  fabric.reset();
  ph.Emit(out);
}

// ---------------------------------------------------------------------------
// shuffle_stream: Fig 11's StRoM arm on the paper's 2-node 10 G cable, at one
// input size: fig11_shuffle's 512 MB point at its default 1/8 scale, sized the
// way fig11_shuffle's ShuffleBed sizes it. One postRpc configures the shuffle
// kernel and one postRpcWrite streams the whole input. The run's one op is the
// shuffle, timed as Fig 11's execution time: configuration post until the
// status word is back and the partitions have drained to host memory.

constexpr Qpn kShuffleQp = 1;
constexpr uint32_t kPartitionBits = 10;  // 1024 partitions, as in Fig 11
constexpr uint32_t kPartitions = 1u << kPartitionBits;
constexpr uint64_t kShuffleBytes = 64'000'000;
constexpr uint64_t kShuffleTuples = kShuffleBytes / 8;
constexpr uint64_t kFillChunkBytes = 4'000'000;

struct StatusWait {
  RoceDriver* driver;
  VirtAddr addr;
  uint64_t* status;
  bool* done;
};

Task WaitForStatus(StatusWait w) {
  *w.status = co_await w.driver->PollU64(w.addr, 0);
  *w.done = true;
}

// Re-reads every partition region and returns how many input tuples are not
// where they belong: a partition must hold exactly the input's tuples whose
// low radix bits name it. A partition that does not match counts all of its
// tuples as misplaced.
uint64_t MisplacedTuples(RoceDriver& receiver, VirtAddr dest, uint64_t stride, uint64_t seed) {
  std::vector<uint64_t> count(kPartitions, 0);
  std::vector<uint64_t> digest(kPartitions, 0);
  Rng rng(seed);
  for (uint64_t i = 0; i < kShuffleTuples; ++i) {
    const uint64_t t = rng.Next();
    const uint32_t p = static_cast<uint32_t>(t & (kPartitions - 1));
    ++count[p];
    digest[p] += Mix64(t);
  }
  uint64_t misplaced = 0;
  for (uint32_t p = 0; p < kPartitions; ++p) {
    Result<ByteBuffer> region =
        receiver.ReadHost(dest + p * stride, std::min(count[p] * 8, stride));
    bool ok = region.ok() && count[p] * 8 <= stride;
    uint64_t got = 0;
    for (uint64_t i = 0; ok && i < count[p]; ++i) {
      const uint64_t t = LoadLe64(region->data() + i * 8);
      ok = (t & (kPartitions - 1)) == p;
      got += Mix64(t);
    }
    misplaced += ok && got == digest[p] ? 0 : count[p];
  }
  return misplaced;
}

void RunShuffle(uint64_t seed, bool traced, RunOutput& out) {
  // Every message is traced: the run posts only two verbs.
  Testbed::telemetry_defaults.enable_trace = traced;
  Testbed::telemetry_defaults.sample_every = 1;

  Phases ph;
  auto bed = std::make_unique<Testbed>(Profile10G());
  ph.t_built = Seconds();
  bed->ConnectQp(0, kShuffleQp, 1, kShuffleQp);
  const KernelConfig kc{bed->profile().roce.clock_ps, bed->profile().roce.data_width};
  auto owned = std::make_unique<ShuffleKernel>(bed->node(1).sim(), kc);
  ShuffleKernel* kernel = owned.get();
  out.Check(bed->node(1).engine().DeployKernel(std::move(owned)).ok(), "kernel deploy failed");
  RoceDriver& sender = bed->node(0).driver();
  RoceDriver& receiver = bed->node(1).driver();
  const VirtAddr resp = sender.AllocBuffer(MiB(1))->addr;
  const VirtAddr input = sender.AllocBuffer(kShuffleBytes + kHugePageSize)->addr;
  // Per-partition regions with 50% headroom, as fig11_shuffle sizes them.
  const uint64_t stride = ((kShuffleBytes / kPartitions) * 3 / 2 + 256 + 7) & ~uint64_t{7};
  const VirtAddr dest = receiver.AllocBuffer(stride * kPartitions + kHugePageSize)->addr;

  const double fill_start = Seconds();
  Rng rng(seed);
  ByteBuffer chunk(kFillChunkBytes);
  for (uint64_t off = 0; off < kShuffleBytes; off += kFillChunkBytes) {
    for (uint64_t i = 0; i < kFillChunkBytes; i += 8) {
      StoreLe64(chunk.data() + i, rng.Next());
    }
    out.Check(sender.WriteHost(input + off, ByteSpan(chunk.data(), kFillChunkBytes)).ok(),
              "input fill failed");
  }
  sender.WriteHostU64(resp, 0);
  ph.mem_fill_s = Seconds() - fill_start;
  ph.t_setup = Seconds();

  Simulator& sim = bed->sim();
  const uint64_t events_before = sim.events_processed();
  ph.pool_before = GetFramePoolStats();
  if (traced) {
    StartCpuSampler(kSamplerHz);
  }
  ph.Stamp();
  const SimTime start = sim.now();
  ShuffleParams config;
  config.target_addr = resp;
  config.partition_bits = kPartitionBits;
  config.region_base = dest;
  config.region_stride = stride;
  sender.PostRpc(kShuffleRpcOpcode, kShuffleQp, config.Encode());
  sender.PostRpcWrite(kShuffleRpcOpcode, kShuffleQp, input,
                      static_cast<uint32_t>(kShuffleBytes));
  uint64_t status = 0;
  bool done = false;
  sim.Spawn(WaitForStatus(StatusWait{&sender, resp, &status, &done}));
  // Stamped between events rather than by scheduled ones: a stamp event
  // pending past the drain would move the clock the execution time is read
  // from.
  for (SimTime next = start + kSlice; !done; next += kSlice) {
    if (!sim.RunUntil([&] { return done || sim.now() >= next; })) {
      break;
    }
    ph.Stamp();
  }
  const SimTime status_at = sim.now();
  sim.RunUntilIdle();
  ph.Stamp();
  const SimTime exec = std::max(status_at, sim.now()) - start;
  if (traced) {
    StopCpuSampler();
  }
  ph.pool_after = GetFramePoolStats();
  ph.events = sim.events_processed() - events_before;

  const bool status_ok = done && StatusWordCode(status) == KernelStatusCode::kOk &&
                         StatusWordExtra(status) == kShuffleTuples;
  const uint64_t failed =
      status_ok ? MisplacedTuples(receiver, dest, stride, seed) : kShuffleTuples;
  out.sim.Int("attempted", kShuffleTuples);
  out.sim.Int("completed", kShuffleTuples - failed);
  out.sim.Int("failed", failed);
  out.sim.Num("fail_frac", double(failed) / kShuffleTuples);
  out.Check(status_ok, "shuffle status word is not OK with every tuple counted");
  out.Check(failed == 0, "partition regions do not hold exactly the input's tuples");
  out.Check(kernel->overflow_drops() == 0, "shuffle kernel dropped tuples on overflow");
  out.Check(kernel->tuples_partitioned() == kShuffleTuples,
            "shuffle kernel partitioned a different number of tuples");
  LatencyStats lat;
  lat.Add(exec);
  EmitLatency(out, lat, double(kShuffleBytes) * 8, exec);

  LayerCounts counts;
  counts.AddNode(bed->node(0));
  counts.AddNode(bed->node(1));
  counts.AddLink(*bed->direct_link());
  counts.Emit(out.sim);
  if (traced) {
    EmitTrace(out, bed->tracer());
  }

  ph.t_teardown = Seconds();
  bed.reset();
  ph.Emit(out);
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workload=", 0) == 0) {
      workload = arg.substr(11);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg == "--traced") {
      traced = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  RunOutput out;
  if (workload == "rack_mixed") {
    RunRack(kRackMixed, seed, traced, out);
  } else if (workload == "rack_incast") {
    RunRack(kRackIncast, seed, traced, out);
  } else if (workload == "shuffle_stream") {
    RunShuffle(seed, traced, out);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", workload.c_str());
    return 2;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.host.Num("peak_rss_mb", double(ru.ru_maxrss) / 1024.0);

  JsonObject env;
  env.Str("event_core", GetEventQueueMode() == EventQueueMode::kWheel ? "wheel" : "heap");
  env.Str("scheduler", Testbed::telemetry_defaults.lp_threads == 0
                           ? "legacy single queue"
                           : "lp x" + std::to_string(Testbed::telemetry_defaults.lp_threads));
  env.Str("build_type", STROMPERF_BUILD_TYPE);
  env.Str("compiler", STROMPERF_COMPILER);

  std::string errors = "[";
  for (const std::string& e : out.errors) {
    errors += (errors.size() > 1 ? ", \"" : "\"") + e + "\"";
  }
  JsonObject top;
  top.Str("workload", workload);
  top.Int("seed", seed);
  top.Raw("env", env.Dump());
  top.Raw("sim", out.sim.Dump());
  top.Raw("host", out.host.Dump());
  top.Raw("traced", out.traced.Dump());
  top.Raw("errors", errors + "]");
  std::printf("%s\n", top.Dump().c_str());
  return out.errors.empty() ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
