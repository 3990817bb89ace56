// The chaos explorer's two systems under test (DESIGN.md §14.3). Each runs
// one fault plan, tears everything down and classifies the run; each is
// deterministic in (config, plan).
//
//   rack   a small Fabric running the YCSB engine with crash recovery armed
//          (leases, reconnects, fence pokes); searched with MakeCrashPlan.
//   cable  36 WRITE / READ / StRoM-RPC ops on the two-node Testbed, each
//          driven to a terminal state or to its 40 ms watchdog, with a QP
//          resync after every QP error; searched with MakeRandomPlan.
//
// Violations, in the priority order they are reported:
//   "non-terminal-ops"   rack: arrived != completed + failed + fenced;
//                        cable: an op hit its watchdog;
//   "deadline"           rack: the drain missed the 3x-duration wedge guard;
//   "payload"            cable: an op that completed OK fails its CRC64;
//   "double-completion"  cable: an op completed more than once;
//   "audit"              both: a conservation auditor (warn mode) tripped;
//   "frame-leak"         both: pooled FrameBuf blocks outstanding after
//                        teardown.
#ifndef SRC_WORKLOAD_CHAOS_SCENARIO_H_
#define SRC_WORKLOAD_CHAOS_SCENARIO_H_

#include <string>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/faults/schedule_search.h"
#include "src/host/liveness.h"
#include "src/workload/ycsb.h"

namespace strom {

// What both scenarios report.
struct ScenarioResult {
  uint64_t audit_checks = 0;
  uint64_t audit_violations = 0;
  // FrameBlocksOutstanding() after teardown minus before construction.
  int64_t frame_blocks_leaked = 0;
  FaultEngineCounters faults;
  ScheduleOutcome outcome;
};

struct RackScenarioConfig {
  FabricTopologyConfig topo;  // single-switch rack; Small() trims to 3 hosts
  YcsbConfig ycsb;            // duration doubles as the crash-plan horizon
  LivenessConfig liveness;
  bool use_100g = false;

  // A rack sized for search loops: small session count, short window,
  // leases fast enough that a crash + reacquire + drain fits well inside the
  // 3x-duration wedge guard.
  static RackScenarioConfig Small();
};

struct RackScenarioResult : ScenarioResult {
  YcsbReport report;
};

struct CableScenarioResult : ScenarioResult {
  int completed_ok = 0;
  int completed_error = 0;
  int watchdog_timeouts = 0;
  int crc_mismatches = 0;
  int double_completions = 0;
  int qp_error_events = 0;
  int reconnects = 0;
  std::vector<std::string> capture_paths;
};

// Both runners: a non-empty `artifact_stem` writes the run's pcapng captures
// and its post-mortem bundle ("<stem>.postmortem.*") under that stem.
RackScenarioResult RunRackScenario(const RackScenarioConfig& config, const FaultPlan& plan,
                                   const std::string& artifact_stem = "");
CableScenarioResult RunCableScenario(bool use_100g, const FaultPlan& plan,
                                     const std::string& artifact_stem = "");

// A scenario as the explorer drives it: schedule k of a search is
// generate(base_seed + k), and `run` classifies one plan.
struct ChaosScenario {
  PlanGenerator generate;
  ScheduleRunner run;
};
ChaosScenario RackScenario(const RackScenarioConfig& config);
ChaosScenario CableScenario(bool use_100g);

}  // namespace strom

#endif  // SRC_WORKLOAD_CHAOS_SCENARIO_H_
