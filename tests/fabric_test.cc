// Fabric + workload-engine tests:
//   * zipfian generator sanity (range, skew, uniform degenerate, determinism),
//   * switch egress/ECN determinism: the same seed produces the identical
//     mark sequence and byte-identical pcapng captures, serially and under
//     ParallelFor with 4 workers (the bench --jobs plumbing),
//   * the paper-style incast claim: ECN/DCQCN keeps the victim queue below
//     the tail-drop point and cuts p999 vs the CC-disabled run,
//   * fault-plan link flaps on fabric links route through the same QP
//     Error -> flush -> ReconnectQp -> resume path as 2-node links,
//   * the opt-in telemetry: switch-port sampler series, per-QP flow stats
//     through the flows.csv loader, and crash/restart flight records.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/parallel.h"
#include "src/fabric/fabric.h"
#include "src/faults/fault_plan.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/flow_stats.h"
#include "src/testbed/workload.h"
#include "src/workload/ycsb.h"
#include "src/workload/zipf.h"
#include "tests/sha256_test_util.h"
#include "tools/stromtrace/inspector.h"

namespace strom {
namespace {

// ---------------------------------------------------------------------------
// Zipfian generator
// ---------------------------------------------------------------------------

TEST(Zipfian, RanksInRangeAndSkewed) {
  constexpr uint64_t kN = 1000;
  constexpr int kDraws = 50000;
  ZipfianGenerator zipf(kN, 0.99);
  Rng rng(7);
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t rank = zipf.Next(rng);
    ASSERT_LT(rank, kN);
    ++counts[rank];
  }
  // Rank 0 is the hottest item and theta=0.99 concentrates mass heavily:
  // the head must dominate any mid-table rank and the top ten must carry a
  // large share of all draws.
  EXPECT_GT(counts[0], counts[kN / 2] * 10);
  int top10 = 0;
  for (int r = 0; r < 10; ++r) {
    top10 += counts[r];
  }
  EXPECT_GT(top10, kDraws / 4);
}

TEST(Zipfian, ThetaZeroIsUniform) {
  constexpr uint64_t kN = 10;
  constexpr int kDraws = 100000;
  ZipfianGenerator zipf(kN, 0.0);
  Rng rng(11);
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[zipf.Next(rng)];
  }
  for (uint64_t r = 0; r < kN; ++r) {
    EXPECT_GT(counts[r], kDraws / kN / 2) << "rank " << r;
    EXPECT_LT(counts[r], kDraws * 2 / kN) << "rank " << r;
  }
}

TEST(Zipfian, SameSeedSameSequence) {
  ZipfianGenerator a(4096, 0.99);
  ZipfianGenerator b(4096, 0.99);
  Rng ra(42);
  Rng rb(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(ra), b.Next(rb)) << "draw " << i;
  }
}

TEST(Zipfian, MixRankScatters) {
  // MixRank must be deterministic and spread adjacent ranks apart so hot
  // keys do not all land on one destination host.
  EXPECT_EQ(MixRank(1), MixRank(1));
  std::map<uint64_t, int> dsts;
  for (uint64_t rank = 0; rank < 64; ++rank) {
    ++dsts[MixRank(rank) % 8];
  }
  EXPECT_GT(dsts.size(), 4u) << "adjacent ranks all map to the same buckets";
}

// ---------------------------------------------------------------------------
// Incast congestion-control claim
// ---------------------------------------------------------------------------

// Mirrors bench/ycsb_rack --compare: 3->1 incast over a single-switch rack
// with a shallow egress queue (40 KiB cap, 16 KiB ECN threshold).
YcsbReport RunIncast(bool cc_enabled) {
  YcsbConfig cfg;
  cfg.incast = true;
  cfg.sessions_per_host = 100000;
  cfg.ops_per_host_per_sec = 700000;
  cfg.max_outstanding_per_host = 256;
  cfg.duration = Us(1000);

  Profile profile = Profile10G();
  profile.roce.max_qps = 4 * cfg.qps_per_peer + 8;
  profile.roce.ecn_capable = cc_enabled;
  profile.roce.dcqcn.enable = cc_enabled;

  FabricTopologyConfig topo;
  topo.num_hosts = 4;
  topo.sw.egress_queue_bytes = 40 * 1024;
  topo.sw.ecn_threshold_bytes = 16 * 1024;

  Fabric fabric(profile, topo);
  YcsbEngine engine(fabric, cfg);
  engine.Setup();
  return engine.Run();
}

TEST(FabricIncast, EcnDcqcnCutsTailLatency) {
  const YcsbReport off = RunIncast(/*cc_enabled=*/false);
  const YcsbReport on = RunIncast(/*cc_enabled=*/true);

  ASSERT_FALSE(off.deadline_hit);
  ASSERT_FALSE(on.deadline_hit);
  ASSERT_GT(off.all.count(), 0u);
  ASSERT_GT(on.all.count(), 0u);

  // Without CC the unthrottled senders overflow the shallow victim queue and
  // pay go-back-N retransmission timeouts; nothing ECN-related happens.
  EXPECT_GT(off.tail_drops, 0u);
  EXPECT_EQ(off.ce_marked, 0u);
  EXPECT_EQ(off.rx_cnp, 0u);

  // With CC the switch marks, the victim echoes, the senders cut rate, and
  // the queue never reaches the drop point.
  EXPECT_GT(on.ce_marked, 0u);
  EXPECT_GT(on.rx_cnp, 0u);
  EXPECT_GT(on.rate_cuts, 0u);
  EXPECT_EQ(on.tail_drops, 0u);
  EXPECT_LT(on.queue_bytes_peak, off.queue_bytes_peak);

  const SimTime p999_off = off.all.Percentile(99.9);
  const SimTime p999_on = on.all.Percentile(99.9);
  EXPECT_LT(p999_on, p999_off)
      << "DCQCN must shorten the tail: off=" << ToUs(p999_off)
      << "us on=" << ToUs(p999_on) << "us";
}

// ---------------------------------------------------------------------------
// Egress/ECN determinism, serial and under 4 workers
// ---------------------------------------------------------------------------

struct IncastPoint {
  uint64_t ce_marked = 0;
  uint64_t rx_cnp = 0;
  uint64_t completed = 0;
  SimTime p999 = 0;
};

struct FabricTrial {
  std::vector<IncastPoint> points;
  std::map<std::string, std::string> capture_digests;  // suffix -> sha256
};

constexpr int kFabricPoints = 2;

FabricTrial RunFabricTrial(const std::string& tag, int jobs) {
  const std::string prefix = ::testing::TempDir() + "/fabric_det_" + tag;
  const TestbedTelemetryDefaults saved = Testbed::telemetry_defaults;
  Testbed::telemetry_defaults.capture_prefix = prefix;
  Testbed::telemetry_defaults.capture_runs = kFabricPoints;

  FabricTrial out;
  out.points.resize(kFabricPoints);
  ParallelFor(kFabricPoints, jobs, [&](size_t i) {
    Testbed::run_ordinal = static_cast<int64_t>(i);
    const YcsbReport r = RunIncast(/*cc_enabled=*/true);
    out.points[i] = IncastPoint{r.ce_marked, r.rx_cnp, r.ops_completed,
                                r.all.count() > 0 ? r.all.Percentile(99.9) : 0};
    Testbed::run_ordinal = -1;
  });

  Testbed::telemetry_defaults = saved;
  for (int run = 0; run < kFabricPoints; ++run) {
    const std::string run_part = run == 0 ? "" : ".run" + std::to_string(run);
    for (const char* kind :
         {"fabric", "node0.nic", "node1.nic", "node2.nic", "node3.nic"}) {
      const std::string suffix = run_part + "." + kind + ".pcapng";
      out.capture_digests[suffix] = Sha256File(prefix + suffix);
    }
  }
  return out;
}

TEST(FabricDeterminism, SameSeedIdenticalMarksAndCaptures) {
  const FabricTrial serial_a = RunFabricTrial("serial_a", 1);
  const FabricTrial serial_b = RunFabricTrial("serial_b", 1);
  const FabricTrial parallel = RunFabricTrial("parallel", 4);

  ASSERT_EQ(serial_a.points.size(), serial_b.points.size());
  for (int i = 0; i < kFabricPoints; ++i) {
    // The mark/echo counters and the tail are functions of the seed alone.
    EXPECT_EQ(serial_a.points[i].ce_marked, serial_b.points[i].ce_marked);
    EXPECT_EQ(serial_a.points[i].ce_marked, parallel.points[i].ce_marked);
    EXPECT_EQ(serial_a.points[i].rx_cnp, parallel.points[i].rx_cnp);
    EXPECT_EQ(serial_a.points[i].completed, parallel.points[i].completed);
    EXPECT_EQ(serial_a.points[i].p999, parallel.points[i].p999);
    EXPECT_GT(serial_a.points[i].ce_marked, 0u)
        << "a trial that never marks proves nothing";
  }
  // Byte-identical pcapng = identical frame bytes in identical order =
  // identical mark sequence, regardless of worker count.
  EXPECT_EQ(serial_a.capture_digests, serial_b.capture_digests);
  EXPECT_EQ(serial_a.capture_digests, parallel.capture_digests);
}

// ---------------------------------------------------------------------------
// Fault-plan link flap -> QP error -> ReconnectQp recovery (satellite: fabric
// links use the same error path as the 2-node cable)
// ---------------------------------------------------------------------------

TEST(FabricChaos, LinkFlapRoutesThroughQpRecovery) {
  constexpr Qpn kQp = 1;
  Profile profile = Profile10G();
  FabricTopologyConfig topo;
  topo.num_hosts = 4;
  Fabric fabric(profile, topo);

  // Host link ordinals follow host order, so link ordinal 1 is host 1's
  // cable and global side 2 is its node-side transmit direction. A 14 ms
  // flap is longer than the full retry budget (100us RTO doubling to the
  // 5 ms cap over 7 retries), so the requester MUST exhaust and error out.
  Result<FaultPlan> plan = FaultPlan::Parse(
      "seed 5\n"
      "link2 down 100us 14ms\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  fabric.ApplyFaultPlan(std::make_shared<const FaultPlan>(*plan));

  fabric.ConnectQp(1, kQp, 2, kQp);
  fabric.ConnectQp(0, kQp, 3, kQp);
  RoceDriver& drv1 = fabric.node(1).driver();
  RoceDriver& drv0 = fabric.node(0).driver();
  const VirtAddr src1 = drv1.AllocBuffer(KiB(64))->addr;
  const VirtAddr dst2 = fabric.node(2).driver().AllocBuffer(KiB(64))->addr;
  const VirtAddr src0 = drv0.AllocBuffer(KiB(64))->addr;
  const VirtAddr dst3 = fabric.node(3).driver().AllocBuffer(KiB(64))->addr;
  STROM_CHECK(drv1.WriteHost(src1, RandomBytes(KiB(64), 3)).ok());
  STROM_CHECK(drv0.WriteHost(src0, RandomBytes(KiB(64), 4)).ok());

  int reconnects = 0;
  bool reconnect_pending = false;
  const auto on_qp_error = [&](Qpn, const Status&) {
    if (reconnect_pending) {
      return;
    }
    reconnect_pending = true;
    fabric.sim().Schedule(Ms(1), [&] {
      ++reconnects;
      fabric.ReconnectQp(1, kQp, 2, kQp, Psn(20000 + 1000 * reconnects),
                         Psn(30000 + 1000 * reconnects));
      reconnect_pending = false;
    });
  };
  drv1.SetQpErrorHandler(on_qp_error);
  fabric.node(2).driver().SetQpErrorHandler(on_qp_error);

  // Op 1: before the flap; must complete cleanly.
  bool op1_done = false;
  Status op1_status;
  drv1.PostWrite(kQp, src1, dst2, 4096, [&](Status st) {
    op1_done = true;
    op1_status = st;
  });
  fabric.sim().RunUntil([&] { return op1_done; });
  EXPECT_TRUE(op1_status.ok()) << op1_status;

  // Op 2: lands inside the flap; the requester retries into the dead link,
  // exhausts the budget, and the QP must move to Error and flush the WQE.
  // RunFor (not RunUntil-on-now): with cancellable timers there may be no
  // event between the flap start and its end, and the clock must still stop
  // at 150us rather than jump across the whole down window.
  fabric.sim().RunFor(Us(150) - fabric.sim().now());
  bool op2_done = false;
  Status op2_status;
  drv1.PostWrite(kQp, src1, dst2, 4096, [&](Status st) {
    op2_done = true;
    op2_status = st;
  });

  // Bystander flow on untouched links keeps completing during the flap.
  bool bystander_done = false;
  Status bystander_status;
  drv0.PostWrite(kQp, src0, dst3, 4096, [&](Status st) {
    bystander_done = true;
    bystander_status = st;
  });

  fabric.sim().RunUntil([&] { return op2_done && bystander_done; });
  EXPECT_FALSE(op2_status.ok()) << "a flushed WQE must complete in error";
  EXPECT_TRUE(bystander_status.ok()) << bystander_status;
  EXPECT_GT(fabric.node(1).stack().counters().qp_errors, 0u);

  // Recovery: the error handler's resync must restore the connection.
  fabric.sim().RunUntil([&] { return !reconnect_pending; });
  EXPECT_EQ(reconnects, 1);
  if (fabric.sim().now() < Ms(15)) {
    fabric.sim().RunFor(Ms(15) - fabric.sim().now());
  }
  bool op3_done = false;
  Status op3_status;
  drv1.PostWrite(kQp, src1, dst2, 4096, [&](Status st) {
    op3_done = true;
    op3_status = st;
  });
  fabric.sim().RunUntil([&] { return op3_done; });
  EXPECT_TRUE(op3_status.ok()) << op3_status;
  EXPECT_GT(fabric.fault_engine()->counters().frames_dropped, 0u)
      << "the plan never bit: the flap missed the traffic";
}

// ---------------------------------------------------------------------------
// Leaf/spine routing smoke: the two-tier topology carries a mixed workload
// ---------------------------------------------------------------------------

TEST(FabricTopology, LeafSpineCarriesMixedWorkload) {
  YcsbConfig cfg;
  cfg.sessions_per_host = 1000;
  cfg.ops_per_host_per_sec = 100000;
  cfg.duration = Us(300);
  cfg.max_outstanding_per_host = 16;

  Profile profile = Profile10G();
  profile.roce.max_qps = 4 * cfg.qps_per_peer + 8;

  FabricTopologyConfig topo;
  topo.num_hosts = 4;
  topo.num_leaves = 2;
  topo.num_spines = 2;

  Fabric fabric(profile, topo);
  YcsbEngine engine(fabric, cfg);
  engine.Setup();
  const YcsbReport r = engine.Run();
  EXPECT_FALSE(r.deadline_hit);
  EXPECT_GT(r.ops_arrived, 0u);
  EXPECT_EQ(r.ops_completed, r.ops_arrived);
  EXPECT_EQ(r.ops_failed, 0u);
}

// ---------------------------------------------------------------------------
// Opt-in telemetry: switch sampler series and per-QP flow stats
// ---------------------------------------------------------------------------

struct DefaultsGuard {
  DefaultsGuard() : saved(Testbed::telemetry_defaults) {}
  ~DefaultsGuard() { Testbed::telemetry_defaults = saved; }
  TestbedTelemetryDefaults saved;
};

// The column `name` of a collected sampler run; empty when absent.
std::vector<double> Series(const TelemetryCollector::Run& run, const std::string& name) {
  std::vector<double> out;
  const auto it = std::find(run.series_names.begin(), run.series_names.end(), name);
  if (it == run.series_names.end()) {
    return out;
  }
  const size_t col = size_t(it - run.series_names.begin());
  for (const TimeSeriesSampler::Row& row : run.series) {
    out.push_back(row.values[col]);
  }
  return out;
}

TEST(FabricTelemetry, SamplerSeriesShowVictimQueueAndCeMarks) {
  DefaultsGuard guard;
  TelemetryCollector collector;
  Testbed::telemetry_defaults.collector = &collector;
  Testbed::telemetry_defaults.sample_interval = Us(5);
  const YcsbReport on = RunIncast(/*cc_enabled=*/true);
  ASSERT_FALSE(on.deadline_hit);
  ASSERT_GT(on.ce_marked, 0u);

  ASSERT_EQ(collector.runs().size(), 1u);
  const TelemetryCollector::Run& run = collector.runs()[0];
  // Host 0 is the incast victim, so leaf0's port 0 is the congested egress.
  const std::vector<double> queue = Series(run, "leaf0.port0.queue_bytes");
  const std::vector<double> marks = Series(run, "leaf0.port0.ce_marked");
  ASSERT_FALSE(queue.empty()) << "Fabric::StartSampling must attach the switch probes";
  ASSERT_EQ(marks.size(), queue.size());
  const double peak = *std::max_element(queue.begin(), queue.end());
  EXPECT_GE(peak, 16.0 * 1024) << "the victim queue must reach the ECN threshold";
  EXPECT_LE(peak, 40.0 * 1024) << "the queue never exceeds its cap";
  EXPECT_TRUE(std::is_sorted(marks.begin(), marks.end())) << "ce_marked is cumulative";
  // The sampler outlives every frame (the run drains to idle), so its last
  // row holds the final count; every mark lands on the victim port.
  EXPECT_EQ(marks.back(), double(on.ce_marked));
  EXPECT_NE(collector.TimeSeriesCsv().find(",leaf0.port0.ce_marked,"), std::string::npos);
}

// Runs the incast with flow stats on, deposits it in `collector`, writes the
// collector's files into the directory `name` and returns its flows.csv as
// loaded by `stromtrace --flows`.
FlowCsvReport RunIncastFlowCsv(bool cc_enabled, TelemetryCollector& collector,
                               const std::string& name, YcsbReport* report) {
  Testbed::telemetry_defaults.collector = &collector;
  Testbed::telemetry_defaults.flow_stats = true;
  *report = RunIncast(cc_enabled);
  EXPECT_FALSE(report->deadline_hit);
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::create_directories(dir);
  EXPECT_TRUE(collector.WriteFiles(dir).ok());
  Result<FlowCsvReport> csv = LoadFlowCsv(dir + "/flows.csv");
  if (!csv.ok()) {
    ADD_FAILURE() << csv.status();
    return FlowCsvReport{};
  }
  EXPECT_EQ(csv->malformed_rows, 0u);
  EXPECT_FALSE(csv->flows.empty());
  return *csv;
}

// `metric` summed over every flow of the report.
double SumFlowMetric(const FlowCsvReport& csv, const std::string& metric) {
  double sum = 0;
  for (const FlowCsvReport::Flow& flow : csv.flows) {
    for (const auto& [name, value] : flow.metrics) {
      if (name == metric) {
        sum += value;
      }
    }
  }
  return sum;
}

TEST(FabricTelemetry, FlowStatsCsvAccountsEveryCompletionAndRateCut) {
  DefaultsGuard guard;
  // The sampler's per-port series include the enqueue/dequeue counts.
  TelemetryCollector collector;
  Testbed::telemetry_defaults.sample_interval = Us(5);
  YcsbReport on;
  const FlowCsvReport csv =
      RunIncastFlowCsv(/*cc_enabled=*/true, collector, "fabric_incast_cc_on", &on);
  ASSERT_GT(on.rate_cuts, 0u);

  EXPECT_EQ(SumFlowMetric(csv, "completions"), double(on.ops_completed))
      << "per-QP completions must add up to the run's completed ops";
  EXPECT_EQ(SumFlowMetric(csv, "rate_cuts"), double(on.rate_cuts));

  uint64_t timeline_cuts = 0;
  for (const FlowCsvReport::DcqcnSummary& d : csv.dcqcn) {
    timeline_cuts += d.cuts;
    EXPECT_GT(d.last_rate_gbps, 0.0);
  }
  EXPECT_GT(timeline_cuts, 0u) << "a DCQCN-on incast timeline must hold rate cuts";
  EXPECT_LE(timeline_cuts, on.rate_cuts);

  ASSERT_EQ(collector.runs().size(), 1u);
  const TelemetryCollector::Run& run = collector.runs()[0];
  const std::vector<double> enqueued = Series(run, "leaf0.port0.frames_enqueued");
  const std::vector<double> dequeued = Series(run, "leaf0.port0.frames_dequeued");
  ASSERT_FALSE(enqueued.empty()) << "the switch probes include the per-port frame counts";
  ASSERT_EQ(dequeued.size(), enqueued.size());
  EXPECT_GT(enqueued.back(), 0.0);
  EXPECT_EQ(dequeued.back(), enqueued.back()) << "the victim queue drains by the last row";
}

TEST(FabricTelemetry, FlowStatsCsvRecordsRecoveryOfAnUncontrolledIncast) {
  DefaultsGuard guard;
  TelemetryCollector collector;
  YcsbReport off;
  const FlowCsvReport csv =
      RunIncastFlowCsv(/*cc_enabled=*/false, collector, "fabric_incast_cc_off", &off);
  ASSERT_GT(off.tail_drops, 0u);
  EXPECT_EQ(SumFlowMetric(csv, "completions"), double(off.ops_completed));
  // Tail drops are recovered by go-back-N, which the flows record; without
  // DCQCN there is no limiter and so no timeline.
  EXPECT_GT(SumFlowMetric(csv, "retransmit_epochs"), 0.0);
  EXPECT_GT(SumFlowMetric(csv, "timeouts"), 0.0);
  EXPECT_EQ(SumFlowMetric(csv, "rate_cuts"), 0.0);
  EXPECT_TRUE(csv.dcqcn.empty());
}

// ---------------------------------------------------------------------------
// Crash episodes in the flight recorder
// ---------------------------------------------------------------------------

// A host, a NIC and a switch crash and restart on an idle 3-host rack with
// the flight recorder armed; the recorder dumps to `stem`.
void RunCrashPlan(const std::string& stem, bool dump_on_crash) {
  Result<FaultPlan> plan = FaultPlan::Parse(
      "seed 1\n"
      "host1 crash 10us - restart_after=5us\n"
      "nic2 crash 20us - restart_after=5us\n"
      "switch0 crash 30us - restart_after=5us\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  for (const char* suffix : {".flightrec.bin", ".metrics.csv", ".frames.pcapng"}) {
    std::remove((stem + suffix).c_str());
  }
  DefaultsGuard guard;
  Testbed::telemetry_defaults.postmortem_stem = stem;
  Testbed::telemetry_defaults.dump_on_crash = dump_on_crash;
  Testbed::telemetry_defaults.fault_plan = std::make_shared<const FaultPlan>(std::move(*plan));
  FabricTopologyConfig topo;
  topo.num_hosts = 3;
  Fabric fabric(Profile10G(), topo);
  fabric.sim().RunUntilIdle();
  EXPECT_TRUE(fabric.switch_at(0).alive());
  EXPECT_TRUE(fabric.node(1).host_alive());
  EXPECT_TRUE(fabric.node(2).nic_alive());
}

// The kCrash/kRestart records of one bundle as (ring, type, opcode, aux).
std::vector<std::vector<uint32_t>> CrashRecords(const FlightRecordBundle& bundle) {
  std::vector<std::vector<uint32_t>> out;
  for (size_t ring = 0; ring < bundle.hosts.size(); ++ring) {
    for (const FlightRecord& r : bundle.hosts[ring]) {
      if (r.type == uint8_t(FlightRecordType::kCrash) ||
          r.type == uint8_t(FlightRecordType::kRestart)) {
        out.push_back({uint32_t(ring), r.type, r.opcode, r.aux});
      }
    }
  }
  return out;
}

TEST(FabricFlightRecorder, CrashAndRestartRecordsCarryTheComponentKind) {
  const std::string stem = ::testing::TempDir() + "/fabric_crash_records";
  RunCrashPlan(stem, /*dump_on_crash=*/false);
  Result<FlightRecordBundle> bundle = LoadFlightRecords(stem + ".flightrec.bin");
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ(bundle->reason, "explicit");
  const uint32_t crash = uint32_t(FlightRecordType::kCrash);
  const uint32_t restart = uint32_t(FlightRecordType::kRestart);
  // Opcode 0 = host, 1 = NIC, 2 = switch; aux names the component, and a
  // switch records into ring 0 because it has no host ring of its own.
  const std::vector<std::vector<uint32_t>> want = {
      {0, crash, 2, 0}, {0, restart, 2, 0},
      {1, crash, 0, 1}, {1, restart, 0, 1},
      {2, crash, 1, 2}, {2, restart, 1, 2},
  };
  EXPECT_EQ(CrashRecords(*bundle), want);
}

TEST(FabricFlightRecorder, FirstCrashDumpsThePostmortemBundle) {
  const std::string stem = ::testing::TempDir() + "/fabric_crash_autodump";
  RunCrashPlan(stem, /*dump_on_crash=*/true);
  Result<FlightRecordBundle> bundle = LoadFlightRecords(stem + ".flightrec.bin");
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  // First trigger wins: the bundle is the scene at host1's crash, before any
  // restart or later crash was recorded.
  EXPECT_EQ(bundle->reason, "crash: host1");
  const std::vector<std::vector<uint32_t>> want = {
      {1, uint32_t(FlightRecordType::kCrash), 0, 1}};
  EXPECT_EQ(CrashRecords(*bundle), want);
  std::ifstream metrics(stem + ".metrics.csv");
  EXPECT_TRUE(metrics.good()) << "the crash dump carries a metrics snapshot";
}

}  // namespace
}  // namespace strom
