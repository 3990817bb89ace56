// The chaos explorer's system-under-test: a rack-scale Fabric running the
// YCSB engine with crash recovery armed (leases, reconnects, fence pokes)
// under the conservation auditors, executed against one fault plan and
// classified into a ScheduleOutcome.
//
// Violations, in the priority order they are reported:
//   "non-terminal-ops"  arrived != completed + failed + fenced — some session
//                       op either vanished or double-counted;
//   "deadline"          the drain did not finish within 3x the arrival window
//                       (a wedged poller or a lease that never re-acquired);
//   "audit"             a conservation auditor tripped (frames or DMA state
//                       unaccounted for across the crash);
//   "frame-leak"        pooled FrameBuf blocks still outstanding after
//                       teardown — crashed components leaked buffers.
//
// The run is deterministic in (config, plan): the same pair always yields the
// same classification.
#ifndef SRC_WORKLOAD_CRASH_SCENARIO_H_
#define SRC_WORKLOAD_CRASH_SCENARIO_H_

#include "src/fabric/fabric.h"
#include "src/faults/schedule_search.h"
#include "src/host/liveness.h"
#include "src/workload/ycsb.h"

namespace strom {

struct CrashScenarioConfig {
  FabricTopologyConfig topo;  // single-switch rack; Small() trims to 3 hosts
  YcsbConfig ycsb;          // duration doubles as the crash-plan horizon
  LivenessConfig liveness;
  bool use_100g = false;    // profile selection (default 10G)

  // A scenario sized for explorer search loops: small session count, short
  // window, leases fast enough that a crash + reacquire + drain fits well
  // inside the 3x-duration wedge guard.
  static CrashScenarioConfig Small();
};

struct CrashScenarioResult {
  YcsbReport report;
  uint64_t audit_checks = 0;
  uint64_t audit_violations = 0;
  // FrameBlocksOutstanding() delta across the scenario (post-teardown minus
  // pre-construction); non-zero means a crash path leaked pooled frames.
  int64_t frame_blocks_leaked = 0;
  FaultEngineCounters faults;
  ScheduleOutcome outcome;
};

// Builds the fabric, applies `plan`, runs YCSB with crash recovery, tears
// everything down, and classifies. Honors STROM_CHAOS_BUG (see
// YcsbEngine::EnableCrashRecovery) — that is how the explorer's
// find-the-reintroduced-bug demo works.
CrashScenarioResult RunCrashScenario(const CrashScenarioConfig& config,
                                     const FaultPlan& plan);

// Adapts RunCrashScenario into the explorer's runner signature.
ScheduleRunner MakeCrashScheduleRunner(CrashScenarioConfig config);

}  // namespace strom

#endif  // SRC_WORKLOAD_CRASH_SCENARIO_H_
