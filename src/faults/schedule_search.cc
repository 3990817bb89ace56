#include "src/faults/schedule_search.h"

#include <utility>
#include <vector>

namespace strom {
namespace {

// Halves a time toward zero on the whole-ns grid the plan grammar round-trips.
SimTime HalveNs(SimTime t) { return Ns((t / kNs) / 2); }

// One shrink attempt: runs the candidate unless the budget is spent, and
// accepts it only if it reproduces the same violation kind.
class Verifier {
 public:
  Verifier(const ScheduleRunner& runner, std::string kind, int max_runs)
      : runner_(runner), kind_(std::move(kind)), max_runs_(max_runs) {}

  bool Reproduces(const FaultPlan& candidate) {
    if (runs_ >= max_runs_) {
      return false;
    }
    ++runs_;
    const ScheduleOutcome out = runner_(candidate);
    return out.violation && out.violation_kind == kind_;
  }

  bool budget_left() const { return runs_ < max_runs_; }
  int runs() const { return runs_; }

 private:
  const ScheduleRunner& runner_;
  std::string kind_;
  int max_runs_;
  int runs_ = 0;
};

}  // namespace

FaultPlan ShrinkPlan(const FaultPlan& plan, const ScheduleRunner& runner,
                     const std::string& violation_kind, int max_runs,
                     int* runs_used) {
  Verifier verify(runner, violation_kind, max_runs);
  FaultPlan best = plan;

  // Phase 1: greedy single-episode removal to a fixpoint. With the small
  // schedules the generators emit (<= 7 episodes) this finds the same minima
  // as full ddmin without the subset bookkeeping.
  bool removed = true;
  while (removed && best.episodes.size() > 1 && verify.budget_left()) {
    removed = false;
    for (size_t i = 0; i < best.episodes.size(); ++i) {
      FaultPlan candidate = best;
      candidate.episodes.erase(candidate.episodes.begin() + long(i));
      if (verify.Reproduces(candidate)) {
        best = std::move(candidate);
        removed = true;
        break;  // restart the scan over the smaller schedule
      }
    }
  }

  // Phase 2: coordinate shrinking on the survivors. Each mutation halves one
  // quantity toward zero and keeps the result only if the violation survives;
  // a successful halving is retried on the same coordinate until it stops
  // reproducing, so delays collapse geometrically within the budget.
  const auto shrink_coordinate = [&](auto mutate) {
    for (size_t i = 0; i < best.episodes.size() && verify.budget_left(); ++i) {
      for (;;) {
        FaultPlan candidate = best;
        if (!mutate(candidate.episodes[i]) || !verify.Reproduces(candidate)) {
          break;
        }
        best = std::move(candidate);
      }
    }
  };
  // Restart delays: a reproducer with restart_after=0 says "the bug is not a
  // race with the restart timing" — maximally informative when it holds.
  shrink_coordinate([](FaultEpisode& ep) {
    if (!IsCrashFault(ep.type) || ep.restart_after <= 0) {
      return false;
    }
    ep.restart_after = HalveNs(ep.restart_after);
    return true;
  });
  // Crash/start times: earlier crashes mean shorter replays.
  shrink_coordinate([](FaultEpisode& ep) {
    if (ep.start <= 0) {
      return false;
    }
    ep.start = HalveNs(ep.start);
    return true;
  });
  // Windowed (link/DMA) episode durations.
  shrink_coordinate([](FaultEpisode& ep) {
    if (IsCrashFault(ep.type) || ep.end <= ep.start) {
      return false;
    }
    const SimTime len = HalveNs(ep.end - ep.start);
    if (len <= 0) {
      return false;
    }
    ep.end = ep.start + len;
    return true;
  });

  if (runs_used != nullptr) {
    *runs_used = verify.runs();
  }
  return best;
}

SearchResult ExploreSchedules(const SearchConfig& config, const PlanGenerator& generate,
                              const ScheduleRunner& runner) {
  SearchResult result;
  for (int k = 0; k < config.budget; ++k) {
    const uint64_t seed = config.base_seed + uint64_t(k);
    const FaultPlan plan = generate(seed);
    ++result.schedules_run;
    const ScheduleOutcome outcome = runner(plan);
    if (!outcome.violation) {
      continue;
    }
    result.found = true;
    result.violating_seed = seed;
    result.outcome = outcome;
    result.original = plan;
    result.minimal = ShrinkPlan(plan, runner, outcome.violation_kind,
                                config.max_shrink_runs, &result.shrink_runs);
    return result;
  }
  return result;
}

}  // namespace strom
