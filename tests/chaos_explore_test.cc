// Tests for the deterministic chaos-schedule explorer (DESIGN.md §14.3):
//   * ShrinkPlan against synthetic oracles — greedy episode removal to a
//     fixpoint, coordinate shrinking of crash/restart times, budget respect,
//     and the guarantee that the result is always a verified reproducer;
//   * ExploreSchedules enumeration order and budget exhaustion;
//   * the rack scenario: with the fence-poke recovery bug reintroduced
//     through YcsbEngineTestPeer, the explorer finds a violating schedule
//     within a small budget and shrinks it to a replayable plan of <= 3
//     episodes; with the bug off, the same minimal plan recovers clean;
//   * the cable scenario: the soak seeds at 10 G and 100 G, and same-seed
//     byte-identical captures.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "src/faults/fault_plan.h"
#include "src/faults/schedule_search.h"
#include "src/workload/chaos_scenario.h"
#include "tests/sha256_test_util.h"

namespace strom {

// Reintroduces the lost-GET-response hang for its lifetime: YCSB engines
// skip the fence pokes that give crash-orphaned GET slots a terminal state.
class YcsbEngineTestPeer {
 public:
  YcsbEngineTestPeer() { YcsbEngine::skip_fence_pokes_ = true; }
  ~YcsbEngineTestPeer() { YcsbEngine::skip_fence_pokes_ = false; }
};

namespace {

FaultPlan SmallCrashPlan(uint64_t seed) { return MakeCrashPlan(seed, Us(400), 3, 1); }

FaultEpisode CrashEpisode(FaultType type, int target, SimTime start,
                          SimTime restart_after) {
  FaultEpisode ep;
  ep.type = type;
  ep.target = target;
  ep.start = start;
  ep.end = -1;
  ep.restart_after = restart_after;
  return ep;
}

// --- shrinking against synthetic oracles ------------------------------------

TEST(ShrinkPlan, RemovesIrrelevantEpisodesAndShrinksCoordinates) {
  // Oracle: the violation needs exactly one thing — a nic crash on node 1.
  // Start/restart times are irrelevant, so coordinate shrinking should drive
  // both to zero; the host2 crash and the link episode must be dropped.
  FaultPlan plan;
  plan.seed = 9;
  plan.episodes.push_back(CrashEpisode(FaultType::kHostCrash, 2, Us(50), Us(40)));
  plan.episodes.push_back(CrashEpisode(FaultType::kNicCrash, 1, Us(160), Us(80)));
  FaultEpisode dup;
  dup.type = FaultType::kDuplicate;
  dup.target = -1;
  dup.start = Us(10);
  dup.end = Us(300);
  dup.p = 0.05;
  plan.episodes.push_back(dup);

  int runs = 0;
  auto oracle = [&runs](const FaultPlan& p) {
    ++runs;
    for (const FaultEpisode& ep : p.episodes) {
      if (ep.type == FaultType::kNicCrash && ep.target == 1) {
        return ScheduleOutcome{true, "synthetic", ""};
      }
    }
    return ScheduleOutcome{};
  };

  int used = 0;
  const FaultPlan minimal = ShrinkPlan(plan, oracle, "synthetic", 64, &used);
  ASSERT_EQ(minimal.episodes.size(), 1u);
  EXPECT_EQ(minimal.episodes[0].type, FaultType::kNicCrash);
  EXPECT_EQ(minimal.episodes[0].target, 1);
  EXPECT_EQ(minimal.episodes[0].start, 0);
  EXPECT_EQ(minimal.episodes[0].restart_after, 0);
  EXPECT_EQ(used, runs);
  EXPECT_LE(used, 64);
  // The minimal plan must survive the text grammar round-trip untouched —
  // that is what makes the reproducer file replayable.
  Result<FaultPlan> again = FaultPlan::Parse(minimal.ToString());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->ToString(), minimal.ToString());
}

TEST(ShrinkPlan, KeepsCoordinatesTheViolationDependsOn) {
  // Oracle: the crash must happen at >= 50us with a restart delay of
  // >= 30us (a "late crash, slow restart" bug). Halving past either floor
  // stops reproducing, so the shrinker must keep the last verified value
  // (one halving from each original) instead of overshooting to zero.
  FaultPlan plan;
  plan.seed = 3;
  plan.episodes.push_back(CrashEpisode(FaultType::kNicCrash, 1, Us(160), Us(80)));

  auto oracle = [](const FaultPlan& p) {
    for (const FaultEpisode& ep : p.episodes) {
      if (ep.type == FaultType::kNicCrash && ep.start >= Us(50) &&
          ep.restart_after >= Us(30)) {
        return ScheduleOutcome{true, "synthetic", ""};
      }
    }
    return ScheduleOutcome{};
  };

  const FaultPlan minimal = ShrinkPlan(plan, oracle, "synthetic", 64);
  ASSERT_EQ(minimal.episodes.size(), 1u);
  EXPECT_GE(minimal.episodes[0].start, Us(50));
  EXPECT_LT(minimal.episodes[0].start, Us(160));  // one verified halving kept
  EXPECT_GE(minimal.episodes[0].restart_after, Us(30));
  EXPECT_LT(minimal.episodes[0].restart_after, Us(80));
}

TEST(ShrinkPlan, ZeroBudgetReturnsOriginalPlan) {
  FaultPlan plan;
  plan.seed = 1;
  plan.episodes.push_back(CrashEpisode(FaultType::kNicCrash, 1, Us(100), Us(50)));
  plan.episodes.push_back(CrashEpisode(FaultType::kHostCrash, 2, Us(120), Us(50)));

  int runs = 0;
  auto oracle = [&runs](const FaultPlan&) {
    ++runs;
    return ScheduleOutcome{true, "synthetic", ""};
  };
  int used = 0;
  const FaultPlan minimal = ShrinkPlan(plan, oracle, "synthetic", 0, &used);
  EXPECT_EQ(minimal.ToString(), plan.ToString());
  EXPECT_EQ(used, 0);
  EXPECT_EQ(runs, 0);
}

TEST(ShrinkPlan, RequiresSameViolationKind) {
  // Removing the host2 episode flips the failure from "deadline" to "audit".
  // The shrinker must treat that as NOT reproducing and keep both episodes.
  FaultPlan plan;
  plan.seed = 2;
  plan.episodes.push_back(CrashEpisode(FaultType::kNicCrash, 1, Us(100), Us(50)));
  plan.episodes.push_back(CrashEpisode(FaultType::kHostCrash, 2, Us(120), Us(50)));

  auto oracle = [](const FaultPlan& p) {
    return p.episodes.size() >= 2 ? ScheduleOutcome{true, "deadline", ""}
                                  : ScheduleOutcome{true, "audit", ""};
  };
  const FaultPlan minimal = ShrinkPlan(plan, oracle, "deadline", 64);
  EXPECT_EQ(minimal.episodes.size(), 2u);
}

// --- search loop -------------------------------------------------------------

TEST(ExploreSchedules, ExhaustsBudgetWhenNothingViolates) {
  SearchConfig sc;
  sc.base_seed = 1;
  sc.budget = 5;
  int runs = 0;
  const SearchResult res = ExploreSchedules(sc, SmallCrashPlan, [&runs](const FaultPlan&) {
    ++runs;
    return ScheduleOutcome{};
  });
  EXPECT_FALSE(res.found);
  EXPECT_EQ(res.schedules_run, 5);
  EXPECT_EQ(runs, 5);
  EXPECT_EQ(res.shrink_runs, 0);
}

TEST(ExploreSchedules, FirstViolationWinsAndGetsShrunk) {
  // Seeds base..base+2 are clean, base+3 violates: the search must stop
  // there (later seeds never run) and hand the schedule to the shrinker.
  SearchConfig sc;
  sc.base_seed = 10;
  sc.budget = 8;
  sc.max_shrink_runs = 16;
  int search_runs = 0;
  const SearchResult res = ExploreSchedules(sc, SmallCrashPlan, [&](const FaultPlan& p) {
    if (p.seed == 13) {  // any schedule from the violating seed, incl. shrink candidates
      return ScheduleOutcome{true, "synthetic", "seed 13 trips"};
    }
    if (p.seed >= 10 && p.seed < 13) {
      ++search_runs;
    }
    return ScheduleOutcome{};
  });
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.violating_seed, 13u);
  EXPECT_EQ(res.schedules_run, 4);
  EXPECT_EQ(search_runs, 3);
  EXPECT_EQ(res.outcome.violation_kind, "synthetic");
  EXPECT_FALSE(res.original.episodes.empty());
  EXPECT_LE(res.minimal.episodes.size(), res.original.episodes.size());
}

// --- the scenarios: clean searches, and the reintroduced recovery bug -------

TEST(ChaosExplorer, CleanRecoveryYieldsNoViolationAcrossSeeds) {
  // Sanity for the search substrate: with recovery intact, a handful of
  // enumerated schedules of each scenario all classify clean.
  SearchConfig sc;
  sc.base_seed = 1;
  sc.budget = 4;
  for (const ChaosScenario& scenario :
       {RackScenario(RackScenarioConfig::Small()), CableScenario(false), CableScenario(true)}) {
    const SearchResult res = ExploreSchedules(sc, scenario.generate, scenario.run);
    EXPECT_FALSE(res.found) << res.outcome.violation_kind << ": " << res.outcome.detail;
    EXPECT_EQ(res.schedules_run, 4);
  }
}

TEST(ChaosExplorer, FindsAndShrinksReintroducedFenceBug) {
  // The explorer must find a violating schedule within a small budget and
  // shrink it to <= 3 episodes; replaying the minimal plan with the fence
  // restored must come back clean.
  SearchConfig sc;
  sc.base_seed = 1;
  sc.budget = 6;
  sc.max_shrink_runs = 48;
  const RackScenarioConfig cfg = RackScenarioConfig::Small();
  const ChaosScenario rack = RackScenario(cfg);
  std::optional<YcsbEngineTestPeer> no_fence(std::in_place);
  const SearchResult res = ExploreSchedules(sc, rack.generate, rack.run);

  ASSERT_TRUE(res.found) << "explorer must find the reintroduced bug in budget";
  EXPECT_EQ(res.outcome.violation_kind, "non-terminal-ops") << res.outcome.detail;
  EXPECT_LE(res.minimal.episodes.size(), 3u);
  EXPECT_GE(res.minimal.episodes.size(), 1u);

  // The reproducer must replay from its text form alone...
  Result<FaultPlan> replay = FaultPlan::Parse(res.minimal.ToString());
  ASSERT_TRUE(replay.ok()) << replay.status();

  // ...still violating with the bug present...
  const RackScenarioResult buggy = RunRackScenario(cfg, *replay);
  EXPECT_TRUE(buggy.outcome.violation);
  EXPECT_EQ(buggy.outcome.violation_kind, "non-terminal-ops");

  // ...and clean once the fence is back: the schedule indicts the bug, not
  // the recovery machinery.
  no_fence.reset();
  const RackScenarioResult fixed = RunRackScenario(cfg, *replay);
  EXPECT_FALSE(fixed.outcome.violation)
      << fixed.outcome.violation_kind << ": " << fixed.outcome.detail;
}

// --- the cable scenario: the soak's invariants ------------------------------

void ExpectSoakInvariants(const CableScenarioResult& r) {
  EXPECT_FALSE(r.outcome.violation) << r.outcome.violation_kind << ": " << r.outcome.detail;
  EXPECT_GT(r.audit_checks, 0u) << "auditor attached but never consulted";
  // The plans always include a link flap; the workload must make real
  // progress around it.
  EXPECT_GT(r.completed_ok, 0);
  // The plan must actually have bitten: a run where no fault ever fired
  // proves nothing about the error paths.
  EXPECT_GT(r.faults.frames_dropped + r.faults.frames_delayed + r.faults.frames_duplicated +
                r.faults.dma_read_errors + r.faults.dma_write_errors,
            0u);
}

TEST(ChaosSoak, SeededPlansCompleteOrError) {
  // Seeds 10, 16 and 21 add a DMA-error episode at the current
  // MakeRandomPlan, driving the full QP Error -> flush -> reconnect ->
  // resume path; seed 1 recovers clean.
  for (const bool use_100g : {false, true}) {
    const ChaosScenario cable = CableScenario(use_100g);
    for (const uint64_t seed : {1, 10, 16, 21}) {
      const FaultPlan plan = cable.generate(seed);
      SCOPED_TRACE(std::string(use_100g ? "100g" : "10g") + " plan:\n" + plan.ToString());
      ExpectSoakInvariants(RunCableScenario(use_100g, plan));
    }
  }
}

TEST(ChaosSoak, SameSeedProducesIdenticalCaptures) {
  const FaultPlan plan = CableScenario(false).generate(1);
  const std::string dir = ::testing::TempDir();
  const CableScenarioResult a = RunCableScenario(false, plan, dir + "chaos_rerun_a");
  const CableScenarioResult b = RunCableScenario(false, plan, dir + "chaos_rerun_b");
  ExpectSoakInvariants(a);
  EXPECT_EQ(a.completed_ok, b.completed_ok);
  EXPECT_EQ(a.completed_error, b.completed_error);
  EXPECT_EQ(a.reconnects, b.reconnects);
  ASSERT_FALSE(a.capture_paths.empty());
  ASSERT_EQ(a.capture_paths.size(), b.capture_paths.size());
  for (size_t i = 0; i < a.capture_paths.size(); ++i) {
    EXPECT_EQ(Sha256File(a.capture_paths[i]), Sha256File(b.capture_paths[i]))
        << a.capture_paths[i] << " vs " << b.capture_paths[i];
  }
}

}  // namespace
}  // namespace strom
