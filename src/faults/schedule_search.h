// Deterministic chaos-schedule explorer: enumerates seeded fault schedules
// from a caller-supplied PlanGenerator, runs each through a caller-supplied
// ScheduleRunner, and when a run violates an invariant shrinks the schedule
// delta-debugging-style to a minimal reproducer.
//
// The explorer is pure control flow over FaultPlans: it knows nothing about
// testbeds or workloads. The scenario (src/workload/chaos_scenario.h) owns
// the expensive part (build a topology, apply the plan, run the workload,
// classify the outcome), which keeps this library free of upward
// dependencies and lets tests drive the search with synthetic oracles.
//
// Everything is deterministic: schedule k of a search is
// generate(base_seed + k), shrink candidates are tried in a fixed order, and
// re-verification uses the same runner — so a found reproducer replays
// bit-for-bit from its plan file alone.
#ifndef SRC_FAULTS_SCHEDULE_SEARCH_H_
#define SRC_FAULTS_SCHEDULE_SEARCH_H_

#include <functional>
#include <string>

#include "src/faults/fault_plan.h"

namespace strom {

// Outcome of running one schedule. `violation_kind` is a short stable label
// ("non-terminal-ops", "deadline", "audit", "frame-leak", ...) used by the
// shrinker to check that a reduced schedule still reproduces the *same*
// failure, not a different one it happened to trip.
struct ScheduleOutcome {
  bool violation = false;
  std::string violation_kind;
  std::string detail;  // human-readable evidence, e.g. "arrived=82 terminal=80"
};

// Runs one fault plan against the system under test and classifies the
// result. Must be deterministic in the plan (same plan -> same outcome).
using ScheduleRunner = std::function<ScheduleOutcome(const FaultPlan&)>;
// Draws the schedule for one seed. Must be deterministic in the seed.
using PlanGenerator = std::function<FaultPlan(uint64_t seed)>;

struct SearchConfig {
  uint64_t base_seed = 1;
  int budget = 32;           // schedules enumerated before giving up
  int max_shrink_runs = 64;  // runner invocations the shrinker may spend
};

struct SearchResult {
  bool found = false;
  int schedules_run = 0;     // search-phase runner invocations
  int shrink_runs = 0;       // shrink-phase runner invocations
  uint64_t violating_seed = 0;
  ScheduleOutcome outcome;   // of the original violating schedule
  FaultPlan original;        // the schedule as enumerated
  FaultPlan minimal;         // the shrunk reproducer (== original if nothing
                             // smaller still violates)
};

// Runs generate(base_seed), generate(base_seed + 1), ... until one violates
// or the budget is exhausted. On violation, shrinks and returns immediately
// (first violation wins — later seeds are never run).
SearchResult ExploreSchedules(const SearchConfig& config, const PlanGenerator& generate,
                              const ScheduleRunner& runner);

// Shrinks `plan` to a smaller schedule that still produces a violation of
// `violation_kind` under `runner`:
//   1. greedy episode removal to a fixpoint — repeatedly drop any single
//      episode whose removal preserves the violation;
//   2. coordinate shrinking — per surviving episode, halve restart_after,
//      halve the crash/start time, and halve windowed-episode durations, each
//      re-verified and kept only if the violation survives.
// Spends at most `max_runs` runner invocations (each candidate costs one);
// `runs_used`, if non-null, receives the actual count. The returned plan is
// always a verified reproducer (worst case: `plan` itself, zero runs spent).
FaultPlan ShrinkPlan(const FaultPlan& plan, const ScheduleRunner& runner,
                     const std::string& violation_kind, int max_runs,
                     int* runs_used = nullptr);

}  // namespace strom

#endif  // SRC_FAULTS_SCHEDULE_SEARCH_H_
