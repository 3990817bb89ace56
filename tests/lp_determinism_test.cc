// Determinism tests for the conservative-parallel DES core: the SAME run
// (one seed, one topology) executed under the LP scheduler at worker-thread
// counts 1, 2, 4 and 8 must produce byte-identical observable output —
// pcapng captures (SHA-256), merged metrics dumps, simulated end time, op
// counts — in every configuration:
//   * a clean 2-node testbed WRITE/READ stream (parallel windows),
//   * a 4-host rack running the YCSB engine (parallel windows),
//   * the same rack under a crash-restart plan with the recovery stack armed
//     (serialized epochs),
//   * a 2-node testbed under a randomized fault plan with abort-mode
//     conservation auditors attached (serialized epochs; the serialization
//     itself must be thread-count independent).
// The legacy single-queue path (lp_threads == 0) is a different event
// interleaving and is not expected to be byte-identical to LP mode; it is
// covered by determinism_test / qp_state_regression_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/faults/fault_plan.h"
#include "src/host/liveness.h"
#include "src/sim/lp_scheduler.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/telemetry.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"
#include "src/workload/ycsb.h"
#include "tests/sha256_test_util.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;
const int kThreadCounts[] = {1, 2, 4, 8};

// Saves/restores the process-wide telemetry defaults around each trial, and
// pins the run ordinal so run labels ("run0:<profile>") do not depend on how
// many trials this process ran before — the comparison must only see
// differences caused by the thread count.
struct DefaultsGuard {
  DefaultsGuard() : saved(Testbed::telemetry_defaults) { Testbed::run_ordinal = 0; }
  ~DefaultsGuard() {
    Testbed::telemetry_defaults = saved;
    Testbed::run_ordinal = -1;
  }
  TestbedTelemetryDefaults saved;
};

struct TrialOutput {
  std::map<std::string, std::string> capture_digests;  // basename -> sha256
  std::string metrics_json;
  std::string metrics_csv;
  SimTime end_time = 0;
  uint64_t ok = 0;
  uint64_t errored = 0;
  uint64_t audit_checks = 0;
  uint64_t lp_parallel_windows = 0;
};

void HashCaptures(const std::vector<std::string>& paths, const std::string& prefix,
                  TrialOutput* out) {
  for (const std::string& path : paths) {
    // Key by the path minus the per-trial prefix so different trials compare.
    out->capture_digests[path.substr(prefix.size())] = Sha256File(path);
  }
}

// ---------------------------------------------------------------------------
// Trial 1: clean 2-node WRITE/READ stream. Node 0 drives a windowed stream
// of WRITEs then READs against node 1; node 1 is passive but its NIC, DMA
// engine and ACK generation all run on its own LP, so every frame crosses an
// SPSC channel and the captures tap both sides.
// ---------------------------------------------------------------------------

TrialOutput RunPingTrial(int threads, const std::string& tag, bool faults, bool audit) {
  DefaultsGuard guard;
  TelemetryCollector collector;
  Testbed::telemetry_defaults = TestbedTelemetryDefaults{};
  Testbed::telemetry_defaults.lp_threads = threads;
  Testbed::telemetry_defaults.collector = &collector;
  std::optional<Auditor> auditor;
  if (audit) {
    // Abort mode: a conservation violation kills the process, so the trial
    // passing at all proves the parallel run kept every frame accounted for.
    auditor.emplace(Auditor::Mode::kAbort);
    Testbed::telemetry_defaults.auditor = &*auditor;
    Testbed::telemetry_defaults.flight_recorder = true;
  }

  TrialOutput out;
  const std::string prefix = ::testing::TempDir() + "/lpdet_" + tag;
  {
    std::optional<Testbed> bed(std::in_place, Profile10G());
    HashCaptures(bed->EnableCapture(prefix), prefix, &out);
    if (faults) {
      bed->ApplyFaultPlan(std::make_shared<const FaultPlan>(MakeRandomPlan(3, Ms(2))));
    }
    bed->ConnectQp(0, kQp, 1, kQp);

    RoceDriver& drv0 = bed->node(0).driver();
    const VirtAddr local = drv0.AllocBuffer(MiB(1))->addr;
    const VirtAddr remote = bed->node(1).driver().AllocBuffer(MiB(1))->addr;
    constexpr int kOps = 24;
    constexpr uint64_t kStride = 8192;
    STROM_CHECK(drv0.WriteHost(local, RandomBytes(kOps * kStride, 11)).ok());

    int posted = 0;
    uint64_t done = 0;
    std::function<void()> post_next = [&] {
      if (posted >= kOps) {
        return;
      }
      const int op = posted++;
      const uint32_t len = 64u << (op % 6);  // 64 B .. 2 KiB
      const VirtAddr src = local + uint64_t(op) * kStride;
      const VirtAddr dst = remote + uint64_t(op) * kStride;
      const auto completion = [&, op](Status st) {
        ++done;
        st.ok() ? ++out.ok : ++out.errored;
        post_next();
      };
      if (op % 3 == 2) {
        drv0.PostRead(kQp, src, dst, len, completion);
      } else {
        drv0.PostWrite(kQp, src, dst, len, completion);
      }
    };
    for (int w = 0; w < 4; ++w) {
      post_next();
    }
    if (faults) {
      // Under faults some ops error out or retry for a long time; a fixed
      // simulated horizon plus a full drain keeps the trial deterministic
      // without waiting on completions that may never come.
      bed->sim().RunFor(Ms(4));
      bed->sim().RunUntilIdle();
    } else {
      bed->sim().RunUntil([&] { return done == kOps; });
      bed->sim().RunUntilIdle();
    }
    out.end_time = bed->sim().now();
    if (bed->scheduler() != nullptr) {
      out.lp_parallel_windows = bed->scheduler()->parallel_windows();
    }
  }  // teardown flushes captures, runs conservation sweeps, deposits metrics
  if (auditor) {
    out.audit_checks = auditor->checks();
  }
  out.metrics_json = collector.MetricsJson();
  out.metrics_csv = collector.MetricsCsv();
  return out;
}

// ---------------------------------------------------------------------------
// Trial 2: 4-host single-switch rack under the YCSB engine — every host and
// the switch on its own LP, traffic crossing LP boundaries both ways. With
// `crash`, a crash-restart plan runs with the full recovery stack armed
// (leases, backoff reconnects, epoch fencing): crashes mass-cancel slab
// timers and restarts re-arm them.
// ---------------------------------------------------------------------------

TrialOutput RunYcsbTrial(int threads, const std::string& tag, bool crash) {
  DefaultsGuard guard;
  TelemetryCollector collector;
  Testbed::telemetry_defaults = TestbedTelemetryDefaults{};
  Testbed::telemetry_defaults.lp_threads = threads;
  Testbed::telemetry_defaults.collector = &collector;
  Testbed::telemetry_defaults.dump_on_crash = false;  // crashes are the point here

  YcsbConfig cfg;
  cfg.sessions_per_host = 1000;
  cfg.ops_per_host_per_sec = 100000;
  cfg.duration = Us(300);
  cfg.warmup = Us(20);
  cfg.max_outstanding_per_host = 16;

  Profile profile = Profile10G();
  profile.roce.max_qps = 4 * cfg.qps_per_peer + 8;
  FabricTopologyConfig topo;
  topo.num_hosts = 4;

  TrialOutput out;
  const std::string prefix = ::testing::TempDir() + "/lpdet_" + tag;
  {
    std::optional<Fabric> fabric(std::in_place, profile, topo);
    HashCaptures(fabric->EnableCapture(prefix), prefix, &out);
    if (crash) {
      fabric->ApplyFaultPlan(
          std::make_shared<const FaultPlan>(MakeCrashPlan(11, Us(300), 4, 1)));
    }
    YcsbEngine engine(*fabric, cfg);
    engine.Setup();
    if (crash) {
      LivenessConfig liveness;
      liveness.lease_interval = Us(10);
      liveness.backoff_initial = Us(5);
      liveness.backoff_max = Us(80);
      engine.EnableCrashRecovery(liveness);
    }
    const YcsbReport report = engine.Run();
    EXPECT_FALSE(report.deadline_hit) << tag;
    EXPECT_EQ(report.ops_arrived,
              report.ops_completed + report.ops_failed + report.ops_fenced)
        << tag << ": every op must reach exactly one terminal state";
    out.ok = report.ops_completed;
    out.errored = report.ops_failed + report.ops_fenced;
    out.end_time = fabric->sim().now();
    if (report.all.count() > 0) {
      // Fold the latency distribution into the comparison: identical sample
      // multisets give identical percentiles.
      out.end_time += report.all.Median() + report.all.P99();
    }
    if (fabric->scheduler() != nullptr) {
      out.lp_parallel_windows = fabric->scheduler()->parallel_windows();
    }
  }
  out.metrics_json = collector.MetricsJson();
  out.metrics_csv = collector.MetricsCsv();
  return out;
}

// ---------------------------------------------------------------------------
// The assertions
// ---------------------------------------------------------------------------

void ExpectIdentical(const TrialOutput& base, const TrialOutput& other, int threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads) + " vs threads=1");
  EXPECT_EQ(base.capture_digests, other.capture_digests);
  EXPECT_EQ(base.metrics_json, other.metrics_json);
  EXPECT_EQ(base.metrics_csv, other.metrics_csv);
  EXPECT_EQ(base.end_time, other.end_time);
  EXPECT_EQ(base.ok, other.ok);
  EXPECT_EQ(base.errored, other.errored);
}

TEST(LpDeterminism, TestbedStreamIsByteIdenticalAcrossThreadCounts) {
  std::optional<TrialOutput> base;
  for (const int t : kThreadCounts) {
    const TrialOutput out =
        RunPingTrial(t, "ping_t" + std::to_string(t), /*faults=*/false, /*audit=*/false);
    EXPECT_EQ(out.ok, 24u);
    EXPECT_FALSE(out.capture_digests.empty());
    if (t > 1) {
      // The clean stream must actually exercise the parallel window path;
      // otherwise this test proves nothing about cross-thread determinism.
      EXPECT_GT(out.lp_parallel_windows, 0u) << "no parallel windows at threads=" << t;
    }
    if (!base) {
      base = out;
    } else {
      ExpectIdentical(*base, out, t);
    }
  }
}

TEST(LpDeterminism, YcsbRackIsByteIdenticalAcrossThreadCounts) {
  std::optional<TrialOutput> base;
  for (const int t : kThreadCounts) {
    const TrialOutput out = RunYcsbTrial(t, "ycsb_t" + std::to_string(t), /*crash=*/false);
    EXPECT_GT(out.ok, 0u);
    EXPECT_FALSE(out.capture_digests.empty());
    if (t > 1) {
      EXPECT_GT(out.lp_parallel_windows, 0u) << "no parallel windows at threads=" << t;
    }
    if (!base) {
      base = out;
    } else {
      ExpectIdentical(*base, out, t);
    }
  }
}

TEST(LpDeterminism, YcsbRackWithCrashPlanIsByteIdenticalAcrossThreadCounts) {
  std::optional<TrialOutput> base;
  for (const int t : kThreadCounts) {
    const TrialOutput out = RunYcsbTrial(t, "crash_t" + std::to_string(t), /*crash=*/true);
    EXPECT_GT(out.ok, 0u);
    EXPECT_FALSE(out.capture_digests.empty());
    EXPECT_EQ(out.lp_parallel_windows, 0u);  // a fault plan serializes epochs
    if (!base) {
      base = out;
    } else {
      ExpectIdentical(*base, out, t);
    }
  }
}

TEST(LpDeterminism, FaultPlanWithAbortAuditIsByteIdenticalAcrossThreadCounts) {
  std::optional<TrialOutput> base;
  for (const int t : kThreadCounts) {
    const TrialOutput out =
        RunPingTrial(t, "fault_t" + std::to_string(t), /*faults=*/true, /*audit=*/true);
    // Abort-mode auditors ran (the process would have died on a violation).
    EXPECT_GT(out.audit_checks, 0u);
    EXPECT_FALSE(out.capture_digests.empty());
    // A fault plan serializes epochs: LPs run sequentially regardless of the
    // requested thread count, which is exactly why the digests must agree.
    EXPECT_EQ(out.lp_parallel_windows, 0u);
    if (!base) {
      base = out;
    } else {
      ExpectIdentical(*base, out, t);
    }
  }
}

}  // namespace
}  // namespace strom
