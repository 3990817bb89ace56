// chaosexplore: deterministic chaos-schedule explorer.
//
//   chaosexplore [--scenario cable|rack] [--profile 10g|100g] [--budget N]
//                [--seed S] [--hosts N] [--duration-us U] [--shrink-runs N]
//                [--out reproducer.plan]
//   chaosexplore --replay plan-file [--scenario ...] [--profile ...]
//                [--hosts N] [--duration-us U]
//
// Scenarios (src/workload/chaos_scenario.h), each with its own generator:
//   rack  (default) YCSB with crash recovery on a small rack, searched with
//         MakeCrashPlan over the rack's own hosts and switches; only the
//         rack takes --hosts and --duration-us.
//   cable WRITE / READ / StRoM-RPC ops with CRC64 payload checks on the
//         two-node cable, searched with MakeRandomPlan network faults.
//
// Search mode runs the schedules of seeds S, S+1, ... and shrinks the first
// violating one to a minimal reproducer, written to --out as a replayable
// plan file. Replay mode runs one plan file, which may come from either
// scenario, and writes the run's pcapng captures and post-mortem bundle
// beside it, under its name without the extension.
//
// Exit codes: 0 = no violation found, 2 = violation found (search) or
// reproduced (replay), 1 = usage/config error: a numeric flag that is not a
// whole number in range ("2x", "-1", "300abc"), a rack flag given with
// --scenario cable, or a replayed plan naming a component the scenario lacks.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/testbed/testbed.h"
#include "src/workload/chaos_scenario.h"

namespace strom {
namespace {

struct Options {
  std::string scenario = "rack";
  std::string profile = "10g";
  int budget = 24;
  uint64_t seed = 1;
  int hosts = 3;
  int64_t duration_us = 400;
  std::string rack_flag;  // a rack-shaping flag that was given, if any
  int shrink_runs = 48;
  std::string out = "chaos_reproducer.plan";
  std::string replay;

  bool cable() const { return scenario == "cable"; }
  bool use_100g() const { return profile == "100g"; }
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scenario cable|rack] [--profile 10g|100g] [--budget N]\n"
               "          [--seed S] [--hosts N] [--duration-us U] [--shrink-runs N]\n"
               "          [--out file]\n"
               "       %s --replay plan-file [--scenario cable|rack] [--profile 10g|100g]\n"
               "          [--hosts N] [--duration-us U]\n",
               argv0, argv0);
}

// Whole decimal number that fits in T, nothing else: no sign on an unsigned
// T, no blanks, no trailing characters.
template <typename T>
bool ParseNumber(const std::string& flag, const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "invalid value for %s: '%s'\n", flag.c_str(), text);
    return false;
  }
  return true;
}

// One of two words.
bool ParseChoice(const std::string& flag, const std::string& text, const char* a,
                 const char* b, std::string* out) {
  if (text != a && text != b) {
    std::fprintf(stderr, "invalid value for %s: '%s'\n", flag.c_str(), text.c_str());
    return false;
  }
  *out = text;
  return true;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    bool parsed = true;
    if (arg == "--scenario" && (v = next())) {
      parsed = ParseChoice(arg, v, "cable", "rack", &opt->scenario);
    } else if (arg == "--profile" && (v = next())) {
      parsed = ParseChoice(arg, v, "10g", "100g", &opt->profile);
    } else if (arg == "--budget" && (v = next())) {
      parsed = ParseNumber(arg, v, &opt->budget);
    } else if (arg == "--seed" && (v = next())) {
      parsed = ParseNumber(arg, v, &opt->seed);
    } else if (arg == "--hosts" && (v = next())) {
      parsed = ParseNumber(arg, v, &opt->hosts);
      opt->rack_flag = arg;
    } else if (arg == "--duration-us" && (v = next())) {
      parsed = ParseNumber(arg, v, &opt->duration_us);
      opt->rack_flag = arg;
    } else if (arg == "--shrink-runs" && (v = next())) {
      parsed = ParseNumber(arg, v, &opt->shrink_runs);
    } else if (arg == "--out" && (v = next())) {
      opt->out = v;
    } else if (arg == "--replay" && (v = next())) {
      opt->replay = v;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
    if (!parsed) {
      return false;
    }
  }
  if (opt->cable() && !opt->rack_flag.empty()) {
    std::fprintf(stderr, "%s shapes only the rack: it needs --scenario rack\n",
                 opt->rack_flag.c_str());
    return false;
  }
  // The horizon becomes picoseconds: cap it well inside SimTime.
  if (opt->budget < 1 || opt->hosts < 2 || opt->duration_us < 50 ||
      opt->duration_us > 1'000'000'000 || opt->shrink_runs < 0) {
    std::fprintf(stderr, "implausible option values\n");
    return false;
  }
  return true;
}

RackScenarioConfig RackFor(const Options& opt) {
  RackScenarioConfig config = RackScenarioConfig::Small();
  config.topo.num_hosts = opt.hosts;
  config.ycsb.duration = Us(opt.duration_us);
  config.use_100g = opt.use_100g();
  return config;
}

// The flags that rerun a search's scenario.
std::string ScenarioFlags(const Options& opt) {
  std::string flags = " --scenario " + opt.scenario + " --profile " + opt.profile;
  if (!opt.cable()) {
    flags += " --hosts " + std::to_string(opt.hosts) + " --duration-us " +
             std::to_string(opt.duration_us);
  }
  return flags;
}

int Replay(const Options& opt) {
  const Result<FaultPlan> plan = FaultPlan::Load(opt.replay);
  if (!plan.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", opt.replay.c_str(),
                 plan.status().ToString().c_str());
    return 1;
  }
  // A plan naming a component the scenario lacks is a config error, not a run.
  const RackScenarioConfig rack = RackFor(opt);
  const Profile profile = opt.use_100g() ? Profile100G() : Profile10G();
  const Status fits = opt.cable() ? Testbed(profile).CheckFaultPlan(*plan)
                                  : Fabric(profile, rack.topo).CheckFaultPlan(*plan);
  if (!fits.ok()) {
    std::fprintf(stderr, "%s: %s\n", opt.replay.c_str(), fits.ToString().c_str());
    return 1;
  }
  const std::string stem = std::filesystem::path(opt.replay).replace_extension().string();
  std::printf("replay: %s (%s, %s)\n", opt.replay.c_str(), opt.scenario.c_str(),
              opt.profile.c_str());
  using ull = unsigned long long;
  ScenarioResult r;
  if (opt.cable()) {
    const CableScenarioResult c = RunCableScenario(opt.use_100g(), *plan, stem);
    std::printf("  ops: ok=%d error=%d watchdog=%d crc_mismatches=%d double_completions=%d\n"
                "  recovery: qp_errors=%d reconnects=%d\n",
                c.completed_ok, c.completed_error, c.watchdog_timeouts, c.crc_mismatches,
                c.double_completions, c.qp_error_events, c.reconnects);
    r = c;
  } else {
    const RackScenarioResult k = RunRackScenario(rack, *plan, stem);
    const YcsbReport& y = k.report;
    std::printf("  ops: arrived=%llu completed=%llu failed=%llu fenced=%llu deadline_hit=%d\n"
                "  recovery: peers_dead=%llu reconnect_attempts=%llu leases_acquired=%llu\n",
                ull(y.ops_arrived), ull(y.ops_completed), ull(y.ops_failed), ull(y.ops_fenced),
                int(y.deadline_hit), ull(y.peers_declared_dead), ull(y.reconnect_attempts),
                ull(y.leases_acquired));
    r = k;
  }
  std::printf("  audit: checks=%llu violations=%llu frame_blocks_leaked=%lld\n"
              "  artifacts: %s.*\n",
              ull(r.audit_checks), ull(r.audit_violations), (long long)r.frame_blocks_leaked,
              stem.c_str());
  if (r.outcome.violation) {
    std::printf("VIOLATION [%s] %s\n", r.outcome.violation_kind.c_str(),
                r.outcome.detail.c_str());
    return 2;
  }
  std::printf("no violation\n");
  return 0;
}

int Search(const Options& opt) {
  const ChaosScenario scenario =
      opt.cable() ? CableScenario(opt.use_100g()) : RackScenario(RackFor(opt));
  const SearchConfig search{opt.seed, opt.budget, opt.shrink_runs};

  int runs = 0;
  const ScheduleRunner runner = [&](const FaultPlan& plan) {
    ++runs;
    std::printf("  run %3d: seeded schedule, %zu episode(s)...\n", runs,
                plan.episodes.size());
    std::fflush(stdout);
    const ScheduleOutcome out = scenario.run(plan);
    if (out.violation) {
      std::printf("  run %3d: VIOLATION [%s] %s\n", runs,
                  out.violation_kind.c_str(), out.detail.c_str());
    }
    return out;
  };

  std::printf("chaosexplore: budget=%d base_seed=%llu%s\n", opt.budget,
              (unsigned long long)opt.seed, ScenarioFlags(opt).c_str());
  const SearchResult result = ExploreSchedules(search, scenario.generate, runner);
  if (!result.found) {
    std::printf("no violating schedule in %d run(s)\n", result.schedules_run);
    return 0;
  }

  std::printf("violating seed %llu after %d schedule(s); shrink used %d "
              "run(s): %zu -> %zu episode(s)\n",
              (unsigned long long)result.violating_seed, result.schedules_run,
              result.shrink_runs, result.original.episodes.size(),
              result.minimal.episodes.size());
  std::printf("minimal reproducer [%s]:\n%s", result.outcome.violation_kind.c_str(),
              result.minimal.ToString().c_str());
  std::ofstream out(opt.out, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 1;
  }
  out << "# chaosexplore minimal reproducer\n"
      << "# violation: " << result.outcome.violation_kind << " — "
      << result.outcome.detail << "\n"
      << "# replay: chaosexplore --replay " << opt.out << ScenarioFlags(opt) << "\n"
      << result.minimal.ToString();
  std::printf("wrote %s\n", opt.out.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    Usage(argv[0]);
    return 1;
  }
  return opt.replay.empty() ? Search(opt) : Replay(opt);
}

}  // namespace
}  // namespace strom

int main(int argc, char** argv) { return strom::Main(argc, argv); }
