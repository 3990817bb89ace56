// Same-seed rerun determinism on the single event queue: each trial runs
// twice in one process and both runs must produce byte-identical observable
// output — pcapng captures (SHA-256), merged metrics dumps, simulated end
// time, op counts — in every configuration:
//   * a clean 2-node testbed WRITE/READ stream,
//   * a 4-host rack running the YCSB engine,
//   * the same rack under a crash-restart plan with the recovery stack armed,
//   * a 2-node testbed under a randomized fault plan with abort-mode
//     conservation auditors attached.
// The second run sees whatever process-wide state the first left behind (a
// warm frame pool, global perf counters, the flight-recorder registration),
// so any leak of that state into simulated behaviour shows up as a diff.
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
#include "src/telemetry/audit.h"
#include "src/telemetry/telemetry.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"
#include "src/workload/ycsb.h"
#include "tests/sha256_test_util.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

// Saves/restores the process-wide telemetry defaults around each trial, and
// pins the run ordinal so run labels ("run0:<profile>") do not depend on how
// many trials this process ran before.
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
  std::string metrics_csv;
  SimTime end_time = 0;
  uint64_t ok = 0;
  uint64_t errored = 0;
  uint64_t audit_checks = 0;
};

// Hashes the capture files once their writers are closed, keyed by the path
// minus the per-run prefix so the two runs compare.
void HashCaptures(const std::vector<std::string>& paths, const std::string& prefix,
                  TrialOutput* out) {
  for (const std::string& path : paths) {
    out->capture_digests[path.substr(prefix.size())] = Sha256File(path);
  }
}

// ---------------------------------------------------------------------------
// Trial 1: 2-node WRITE/READ stream. Node 0 drives a windowed stream of
// WRITEs then READs against node 1; the captures tap the wire and both NICs.
// With `faults`, a randomized fault plan runs against the link and DMA
// engines; with `audit`, abort-mode conservation auditors are attached.
// ---------------------------------------------------------------------------

TrialOutput RunPingTrial(const std::string& tag, bool faults, bool audit) {
  DefaultsGuard guard;
  TelemetryCollector collector;
  Testbed::telemetry_defaults = TestbedTelemetryDefaults{};
  Testbed::telemetry_defaults.collector = &collector;
  std::optional<Auditor> auditor;
  if (audit) {
    // Abort mode: a conservation violation kills the process, so the trial
    // passing at all proves every frame stayed accounted for.
    auditor.emplace(Auditor::Mode::kAbort);
    Testbed::telemetry_defaults.auditor = &*auditor;
    Testbed::telemetry_defaults.flight_recorder = true;
  }

  TrialOutput out;
  const std::string prefix = ::testing::TempDir() + "/rundet_" + tag;
  std::vector<std::string> capture_paths;
  {
    std::optional<Testbed> bed(std::in_place, Profile10G());
    capture_paths = bed->EnableCapture(prefix);
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
  }  // teardown flushes captures, runs conservation sweeps, deposits metrics
  HashCaptures(capture_paths, prefix, &out);
  if (auditor) {
    out.audit_checks = auditor->checks();
  }
  out.metrics_csv = collector.MetricsCsv();
  return out;
}

// ---------------------------------------------------------------------------
// Trial 2: 4-host single-switch rack under the YCSB engine. With `crash`, a
// crash-restart plan runs with the full recovery stack armed (leases,
// backoff reconnects, epoch fencing): crashes mass-cancel slab timers and
// restarts re-arm them.
// ---------------------------------------------------------------------------

TrialOutput RunYcsbTrial(const std::string& tag, bool crash) {
  DefaultsGuard guard;
  TelemetryCollector collector;
  Testbed::telemetry_defaults = TestbedTelemetryDefaults{};
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
  const std::string prefix = ::testing::TempDir() + "/rundet_" + tag;
  std::vector<std::string> capture_paths;
  {
    std::optional<Fabric> fabric(std::in_place, profile, topo);
    capture_paths = fabric->EnableCapture(prefix);
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
  }
  HashCaptures(capture_paths, prefix, &out);
  out.metrics_csv = collector.MetricsCsv();
  return out;
}

// ---------------------------------------------------------------------------
// The assertions
// ---------------------------------------------------------------------------

void ExpectIdentical(const TrialOutput& first, const TrialOutput& rerun) {
  SCOPED_TRACE("rerun vs first run");
  EXPECT_EQ(first.capture_digests, rerun.capture_digests);
  EXPECT_EQ(first.metrics_csv, rerun.metrics_csv);
  EXPECT_EQ(first.end_time, rerun.end_time);
  EXPECT_EQ(first.ok, rerun.ok);
  EXPECT_EQ(first.errored, rerun.errored);
}

TEST(RunDeterminism, TestbedStreamIsByteIdenticalOnRerun) {
  const TrialOutput first = RunPingTrial("ping_run0", /*faults=*/false, /*audit=*/false);
  const TrialOutput rerun = RunPingTrial("ping_run1", /*faults=*/false, /*audit=*/false);
  EXPECT_EQ(first.ok, 24u);
  EXPECT_FALSE(first.capture_digests.empty());
  ExpectIdentical(first, rerun);
}

TEST(RunDeterminism, YcsbRackIsByteIdenticalOnRerun) {
  const TrialOutput first = RunYcsbTrial("ycsb_run0", /*crash=*/false);
  const TrialOutput rerun = RunYcsbTrial("ycsb_run1", /*crash=*/false);
  EXPECT_GT(first.ok, 0u);
  EXPECT_FALSE(first.capture_digests.empty());
  ExpectIdentical(first, rerun);
}

TEST(RunDeterminism, YcsbRackWithCrashPlanIsByteIdenticalOnRerun) {
  const TrialOutput first = RunYcsbTrial("crash_run0", /*crash=*/true);
  const TrialOutput rerun = RunYcsbTrial("crash_run1", /*crash=*/true);
  EXPECT_GT(first.ok, 0u);
  EXPECT_FALSE(first.capture_digests.empty());
  ExpectIdentical(first, rerun);
}

TEST(RunDeterminism, FaultPlanWithAbortAuditIsByteIdenticalOnRerun) {
  const TrialOutput first = RunPingTrial("fault_run0", /*faults=*/true, /*audit=*/true);
  const TrialOutput rerun = RunPingTrial("fault_run1", /*faults=*/true, /*audit=*/true);
  // Abort-mode auditors ran (the process would have died on a violation).
  EXPECT_GT(first.audit_checks, 0u);
  EXPECT_FALSE(first.capture_digests.empty());
  ExpectIdentical(first, rerun);
}

}  // namespace
}  // namespace strom
