#include "src/workload/chaos_scenario.h"

#include <memory>
#include <optional>
#include <string>

#include "src/common/crc.h"
#include "src/common/frame_buf.h"
#include "src/kernels/traversal.h"
#include "src/kvs/linked_list.h"
#include "src/telemetry/audit.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

// One scenario run's observability: swaps in its own telemetry defaults
// (warn-mode auditors; with an artifact stem, an armed flight recorder) and
// restores the caller's on destruction. Build and tear down the topology
// inside its lifetime, then call Finish.
class RunHarness {
 public:
  explicit RunHarness(const std::string& artifact_stem)
      : saved_(Testbed::telemetry_defaults), frames_before_(FrameBlocksOutstanding()) {
    TestbedTelemetryDefaults& d = Testbed::telemetry_defaults;
    d = TestbedTelemetryDefaults{};
    // Search loops run hundreds of crashing schedules; a dump per crash
    // would be noise. An artifact run dumps once, at teardown.
    d.dump_on_crash = false;
    d.auditor = &auditor_;
    if (!artifact_stem.empty()) {
      d.flight_recorder = true;
      d.postmortem_stem = artifact_stem + ".postmortem";
    }
  }
  ~RunHarness() { Testbed::telemetry_defaults = saved_; }

  // Records the teardown check and classifies it, unless the run already
  // violated something.
  void Finish(ScenarioResult* r) const {
    r->audit_checks = auditor_.checks();
    r->audit_violations = auditor_.violations();
    r->frame_blocks_leaked = int64_t(FrameBlocksOutstanding()) - int64_t(frames_before_);
    if (r->outcome.violation) {
      return;
    }
    if (r->audit_violations > 0) {
      r->outcome = {true, "audit", std::to_string(r->audit_violations) +
                                       " conservation violation(s)"};
    } else if (r->frame_blocks_leaked != 0) {
      r->outcome = {true, "frame-leak", std::to_string(r->frame_blocks_leaked) +
                                            " pooled frame block(s) leaked"};
    }
  }

 private:
  TestbedTelemetryDefaults saved_;
  Auditor auditor_{Auditor::Mode::kWarn};
  uint64_t frames_before_;
};

Profile ProfileFor(bool use_100g) { return use_100g ? Profile100G() : Profile10G(); }

// The cable workload.
constexpr Qpn kQp = 1;
constexpr uint32_t kValueSize = 64;
constexpr uint64_t kOpStride = 8192;  // per-op buffer slot (max op length)
constexpr int kOps = 36;
// Generous simulated-time budget per op: covers the worst random flap
// (horizon/10 = 1 ms) plus full backoff retransmission several times over.
constexpr SimTime kOpDeadline = Ms(40);
constexpr SimTime kPlanHorizon = Ms(10);

}  // namespace

RackScenarioConfig RackScenarioConfig::Small() {
  RackScenarioConfig config;
  config.topo.num_hosts = 3;
  config.ycsb.sessions_per_host = 2000;
  config.ycsb.qps_per_peer = 2;
  config.ycsb.ops_per_host_per_sec = 1e5;
  config.ycsb.value_bytes = 128;
  config.ycsb.keys_per_server = 64;
  config.ycsb.max_outstanding_per_host = 16;
  config.ycsb.duration = Us(400);
  config.ycsb.warmup = Us(20);
  // Leases fast relative to the window: a mid-run crash is detected, backed
  // off, re-acquired and drained well inside the 3x-duration wedge guard.
  config.liveness.lease_interval = Us(10);
  config.liveness.backoff_initial = Us(5);
  config.liveness.backoff_max = Us(80);
  return config;
}

RackScenarioResult RunRackScenario(const RackScenarioConfig& config, const FaultPlan& plan,
                                   const std::string& artifact_stem) {
  RackScenarioResult result;
  const RunHarness harness(artifact_stem);
  {
    Profile profile = ProfileFor(config.use_100g);
    profile.roce.max_qps = uint32_t(config.topo.num_hosts) * config.ycsb.qps_per_peer + 8;
    Fabric fabric(profile, config.topo);
    if (!artifact_stem.empty()) {
      fabric.EnableCapture(artifact_stem);
    }
    fabric.ApplyFaultPlan(std::make_shared<const FaultPlan>(plan));
    YcsbEngine engine(fabric, config.ycsb);
    engine.Setup();
    engine.EnableCrashRecovery(config.liveness);
    result.report = engine.Run();
    result.faults = fabric.fault_engine()->counters();
  }  // teardown runs the conservation sweeps and returns pooled frames

  const YcsbReport& r = result.report;
  const uint64_t terminal = r.ops_completed + r.ops_failed + r.ops_fenced;
  if (terminal != r.ops_arrived) {
    result.outcome = {true, "non-terminal-ops",
                      "arrived=" + std::to_string(r.ops_arrived) +
                          " terminal=" + std::to_string(terminal) +
                          " (completed=" + std::to_string(r.ops_completed) +
                          " failed=" + std::to_string(r.ops_failed) +
                          " fenced=" + std::to_string(r.ops_fenced) + ")"};
  } else if (r.deadline_hit) {
    result.outcome = {true, "deadline", "drain missed the 3x-duration wedge guard"};
  }
  harness.Finish(&result);
  return result;
}

CableScenarioResult RunCableScenario(bool use_100g, const FaultPlan& plan,
                                     const std::string& artifact_stem) {
  CableScenarioResult result;
  const RunHarness harness(artifact_stem);
  int first_timeout = -1;  // the first op that hit its watchdog
  {
    Testbed bed(ProfileFor(use_100g));
    if (!artifact_stem.empty()) {
      result.capture_paths = bed.EnableCapture(artifact_stem);
    }
    bed.ApplyFaultPlan(std::make_shared<const FaultPlan>(plan));
    bed.ConnectQp(0, kQp, 1, kQp);

    RoceDriver& drv0 = bed.node(0).driver();
    RoceDriver& drv1 = bed.node(1).driver();
    const VirtAddr write_src = drv0.AllocBuffer(MiB(1))->addr;
    const VirtAddr read_dst = drv0.AllocBuffer(MiB(1))->addr;
    const VirtAddr resp_region = drv0.AllocBuffer(MiB(1))->addr;
    const VirtAddr write_dst = drv1.AllocBuffer(MiB(1))->addr;
    const VirtAddr read_src = drv1.AllocBuffer(MiB(1))->addr;
    const VirtAddr elems = drv1.AllocBuffer(MiB(1))->addr;
    const VirtAddr values = drv1.AllocBuffer(MiB(1))->addr;

    // Seeded source data for READ ops.
    const uint64_t seed = plan.seed;
    const ByteBuffer read_pool = RandomBytes(kOps * kOpStride, seed ^ 0xF00D);
    STROM_CHECK(drv1.WriteHost(read_src, read_pool).ok());

    // Remote linked list + traversal kernel for RPC ops (fig07 workload).
    const KernelConfig kc{bed.profile().roce.clock_ps, bed.profile().roce.data_width};
    STROM_CHECK(bed.node(1)
                    .engine()
                    .DeployKernel(std::make_unique<TraversalKernel>(bed.node(1).sim(), kc))
                    .ok());
    const std::vector<uint64_t> keys{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000};
    Result<RemoteLinkedList> list =
        RemoteLinkedList::Build(drv1, elems, values, keys, kValueSize, 17);
    STROM_CHECK(list.ok()) << list.status();

    // QP error handling: either side's handler schedules one resync that
    // resets both ends with fresh PSNs (out-of-band recovery, paper §4.3).
    bool reconnect_pending = false;
    const auto on_qp_error = [&](Qpn, const Status&) {
      ++result.qp_error_events;
      if (reconnect_pending) {
        return;
      }
      reconnect_pending = true;
      bed.sim().Schedule(Ms(1), [&] {
        ++result.reconnects;
        const Psn base = Psn(10000 + 1000 * result.reconnects);
        bed.ReconnectQp(0, kQp, 1, kQp, base, base + 40000);
        reconnect_pending = false;
      });
    };
    drv0.SetQpErrorHandler(on_qp_error);
    drv1.SetQpErrorHandler(on_qp_error);

    // Each op's completions are recorded for the whole run, so one that
    // fires after its op was classified is still counted.
    struct OpRecord {
      int completions = 0;
      Status status;
    };
    std::vector<OpRecord> records(kOps);
    Rng rng(seed * 77 + 1);
    for (int op = 0; op < kOps; ++op) {
      // Pace ops across the plan horizon so every fault window overlaps
      // traffic; back-to-back ops would drain the workload in a fraction of
      // the horizon and most episodes would never bite.
      const SimTime op_start = SimTime(op) * kPlanHorizon / kOps;
      if (bed.sim().now() < op_start) {
        bed.sim().RunFor(op_start - bed.sim().now());
      }
      const SimTime deadline = bed.sim().now() + kOpDeadline;
      const int kind = op % 3;
      const uint32_t len = uint32_t(64) << rng.Below(8);  // 64 B .. 8 KiB
      const uint64_t slot = uint64_t(op) * kOpStride;
      const uint64_t errors_at_post = bed.node(0).stack().counters().qp_errors +
                                      bed.node(1).stack().counters().qp_errors;

      OpRecord& rec = records[size_t(op)];
      ByteBuffer expected;
      VirtAddr rpc_status_addr = 0;
      const auto done = [&rec](Status st) {
        if (++rec.completions == 1) {
          rec.status = st;
        }
      };

      if (kind == 0) {  // WRITE node0 -> node1
        expected = RandomBytes(len, seed * 1000 + uint64_t(op));
        STROM_CHECK(drv0.WriteHost(write_src + slot, expected).ok());
        drv0.PostWrite(kQp, write_src + slot, write_dst + slot, len, done);
      } else if (kind == 1) {  // READ node1 -> node0
        expected.assign(read_pool.begin() + slot, read_pool.begin() + slot + len);
        drv0.PostRead(kQp, read_dst + slot, read_src + slot, len, done);
      } else {  // StRoM traversal RPC; terminal state is the status word
        const uint64_t key = keys[rng.Below(keys.size())];
        expected = list->ExpectedValue(key);
        rpc_status_addr = resp_region + slot + kValueSize;
        drv0.FillHost(resp_region + slot, kValueSize + 8, 0);
        drv0.PostRpc(kTraversalRpcOpcode, kQp,
                     list->LookupParams(key, resp_region + slot).Encode(), done);
      }

      // Drive the simulator until the op reaches a terminal state. For RPCs
      // the request completion is not terminal: wait for the kernel's status
      // word, or for a QP error that explains its absence.
      bool terminal = false;
      bool rpc_status_seen = false;
      while (!terminal) {
        if (kind == 2) {
          rpc_status_seen = drv0.ReadHostU64(rpc_status_addr) != 0;
          const uint64_t errors_now = bed.node(0).stack().counters().qp_errors +
                                      bed.node(1).stack().counters().qp_errors;
          // No status word yet: a flushed request or a dead QP means the
          // response won't come.
          terminal = rpc_status_seen || (rec.completions > 0 &&
                                         (!rec.status.ok() || errors_now > errors_at_post));
        } else {
          terminal = rec.completions > 0;
        }
        if (terminal || bed.sim().now() >= deadline || !bed.sim().Step()) {
          break;  // terminal, past the watchdog, or drained with the op pending
        }
      }
      if (!terminal) {
        first_timeout = result.watchdog_timeouts++ == 0 ? op : first_timeout;
        continue;
      }

      // The network completion (ACK) can race the responder's PCIe write to
      // host memory; drain the queue so landed payloads are visible before
      // the integrity check. The drain also lands any resync in flight
      // before the next op posts.
      bed.sim().RunUntilIdle();

      // Classify + integrity-check the terminal state: where an OK op's
      // bytes landed, if it completed OK.
      std::optional<Result<ByteBuffer>> landed;
      if (kind == 0 && rec.status.ok()) {
        landed = drv1.ReadHost(write_dst + slot, len);
      } else if (kind == 1 && rec.status.ok()) {
        landed = drv0.ReadHost(read_dst + slot, len);
      } else if (kind == 2 && rpc_status_seen &&
                 StatusWordCode(drv0.ReadHostU64(rpc_status_addr)) == KernelStatusCode::kOk) {
        landed = drv0.ReadHost(resp_region + slot, kValueSize);
      }
      result.completed_ok += landed ? 1 : 0;
      result.completed_error += landed ? 0 : 1;  // errored, or the kernel reported the fault
      result.crc_mismatches +=
          landed && (!landed->ok() || Crc64::Compute(**landed) != Crc64::Compute(expected));
    }

    bed.sim().RunUntilIdle();
    for (const OpRecord& rec : records) {
      result.double_completions += rec.completions > 1 ? 1 : 0;
    }
    result.faults = bed.fault_engine()->counters();
  }  // teardown runs the conservation sweeps

  if (result.watchdog_timeouts > 0) {
    result.outcome = {true, "non-terminal-ops",
                      std::to_string(result.watchdog_timeouts) + " of " + std::to_string(kOps) +
                          " ops hit the watchdog, op " + std::to_string(first_timeout) + " first"};
  } else if (result.crc_mismatches > 0) {
    result.outcome = {true, "payload",
                      std::to_string(result.crc_mismatches) + " op(s) completed OK with "
                                                              "a CRC64 mismatch"};
  } else if (result.double_completions > 0) {
    result.outcome = {true, "double-completion",
                      std::to_string(result.double_completions) + " op(s) completed twice"};
  }
  harness.Finish(&result);
  return result;
}

ChaosScenario RackScenario(const RackScenarioConfig& config) {
  const int switches = config.topo.num_leaves + config.topo.num_spines;
  return {[config, switches](uint64_t seed) {
            return MakeCrashPlan(seed, config.ycsb.duration, config.topo.num_hosts, switches);
          },
          [config](const FaultPlan& plan) { return RunRackScenario(config, plan).outcome; }};
}

ChaosScenario CableScenario(bool use_100g) {
  return {[](uint64_t seed) { return MakeRandomPlan(seed, kPlanHorizon); },
          [use_100g](const FaultPlan& plan) { return RunCableScenario(use_100g, plan).outcome; }};
}

}  // namespace strom
