#include "src/faults/fault_plan.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/common/rng.h"

namespace strom {
namespace {

struct TypeInfo {
  const char* name;
  FaultType type;
  FaultTargetKind kind;
};

// "crash" appears once per component kind: the type name in the plan text is
// shared and the target prefix picks the concrete FaultType.
constexpr TypeInfo kTypes[] = {
    {"burst_loss", FaultType::kBurstLoss, FaultTargetKind::kLink},
    {"reorder", FaultType::kReorder, FaultTargetKind::kLink},
    {"duplicate", FaultType::kDuplicate, FaultTargetKind::kLink},
    {"jitter", FaultType::kJitter, FaultTargetKind::kLink},
    {"down", FaultType::kLinkDown, FaultTargetKind::kLink},
    {"silent_drop", FaultType::kSilentDrop, FaultTargetKind::kLink},
    {"read_error", FaultType::kDmaReadError, FaultTargetKind::kDma},
    {"write_error", FaultType::kDmaWriteError, FaultTargetKind::kDma},
    {"crash", FaultType::kHostCrash, FaultTargetKind::kHost},
    {"crash", FaultType::kNicCrash, FaultTargetKind::kNic},
    {"crash", FaultType::kSwitchCrash, FaultTargetKind::kSwitch},
};

struct PrefixInfo {
  const char* prefix;
  size_t len;
  FaultTargetKind kind;
};

// Longest prefixes first so "switch" is never shadowed; none of the current
// prefixes is a prefix of another, but keep the order defensive.
constexpr PrefixInfo kPrefixes[] = {
    {"switch", 6, FaultTargetKind::kSwitch},
    {"link", 4, FaultTargetKind::kLink},
    {"host", 4, FaultTargetKind::kHost},
    {"dma", 3, FaultTargetKind::kDma},
    {"nic", 3, FaultTargetKind::kNic},
};

const char* TargetPrefix(FaultTargetKind kind) {
  for (const PrefixInfo& p : kPrefixes) {
    if (p.kind == kind) {
      return p.prefix;
    }
  }
  return "?";
}

// A whole decimal number that fits in T and is the whole token.
template <typename T>
bool ParseWhole(const std::string& tok, T* out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, *out);
  return !tok.empty() && ec == std::errc() && ptr == end;
}

// A time that is a whole number of nanoseconds inside SimTime, so that
// FormatTime writes it back exactly; '-' reads as -1.
bool ParseTime(const std::string& tok, SimTime* out) {
  if (tok == "-") {
    *out = -1;
    return true;
  }
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || !(v >= 0)) {  // also rejects NaN
    return false;
  }
  const std::string unit(end);
  double scale = 0;
  if (unit == "ns") {
    scale = kNs;
  } else if (unit == "us") {
    scale = kUs;
  } else if (unit == "ms") {
    scale = kMs;
  } else if (unit == "s") {
    scale = kSec;
  } else {
    return false;
  }
  // Infinity and anything past SimTime's range (~106 days) would convert
  // out of range.
  const double ps = std::round(v * scale);
  if (!(ps < 0x1p63) || std::fmod(ps, double(kNs)) != 0) {
    return false;
  }
  *out = SimTime(ps);
  return true;
}

std::string FormatTime(SimTime t) {
  if (t < 0) {
    return "-";
  }
  // Pick the largest unit that divides t exactly so ToString round-trips.
  if (t % kSec == 0) {
    return std::to_string(t / kSec) + "s";
  }
  if (t % kMs == 0) {
    return std::to_string(t / kMs) + "ms";
  }
  if (t % kUs == 0) {
    return std::to_string(t / kUs) + "us";
  }
  return std::to_string(t / kNs) + "ns";
}

// The shortest text that parses back to exactly `p`.
std::string FormatProb(double p) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), p).ptr);
}

bool ParseProb(const std::string& tok, double* out) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0' || !(v >= 0 && v <= 1)) {  // also rejects NaN
    return false;
  }
  *out = v;
  return true;
}

// Whether `type` reads the field `key` sets, so that ToString writes it back.
bool KeyApplies(FaultType type, const std::string& key) {
  switch (type) {
    case FaultType::kBurstLoss:
      return key == "p_gb" || key == "p_bg" || key == "loss_good" || key == "loss_bad";
    case FaultType::kReorder:
      return key == "p" || key == "delay" || key == "max";
    case FaultType::kJitter:
      return key == "delay" || key == "max";
    case FaultType::kDuplicate:
    case FaultType::kSilentDrop:
    case FaultType::kDmaReadError:
    case FaultType::kDmaWriteError:
      return key == "p";
    case FaultType::kLinkDown:
      return false;
    case FaultType::kHostCrash:
    case FaultType::kNicCrash:
    case FaultType::kSwitchCrash:
      return key == "restart_after";
  }
  return false;
}

Status LineError(int line, const std::string& msg) {
  return InvalidArgumentError("fault plan line " + std::to_string(line) + ": " + msg);
}

}  // namespace

const char* FaultTypeName(FaultType type) {
  for (const TypeInfo& info : kTypes) {
    if (info.type == type) {
      return info.name;
    }
  }
  return "?";
}

FaultTargetKind FaultTargetKindOf(FaultType type) {
  for (const TypeInfo& info : kTypes) {
    if (info.type == type) {
      return info.kind;
    }
  }
  return FaultTargetKind::kLink;
}

bool IsLinkFault(FaultType type) {
  return FaultTargetKindOf(type) == FaultTargetKind::kLink;
}

bool IsCrashFault(FaultType type) {
  return type == FaultType::kHostCrash || type == FaultType::kNicCrash ||
         type == FaultType::kSwitchCrash;
}

Result<FaultPlan> FaultPlan::Parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const size_t hash = raw.find('#');
    if (hash != std::string::npos) {
      raw.resize(hash);
    }
    std::istringstream line(raw);
    std::vector<std::string> tok;
    std::string t;
    while (line >> t) {
      tok.push_back(t);
    }
    if (tok.empty()) {
      continue;
    }
    if (tok[0] == "seed") {
      if (tok.size() != 2) {
        return LineError(lineno, "expected 'seed <N>'");
      }
      if (!ParseWhole(tok[1], &plan.seed)) {
        return LineError(lineno, "bad seed '" + tok[1] + "'");
      }
      continue;
    }
    if (tok.size() < 4) {
      return LineError(lineno, "expected '<target> <type> <start> <end> [key=value ...]'");
    }
    FaultEpisode ep;
    // Target.
    const std::string& target = tok[0];
    const PrefixInfo* prefix = nullptr;
    for (const PrefixInfo& candidate : kPrefixes) {
      if (target.rfind(candidate.prefix, 0) == 0) {
        prefix = &candidate;
        break;
      }
    }
    if (prefix == nullptr) {
      return LineError(lineno, "unknown target '" + target + "'");
    }
    const std::string index = target.substr(prefix->len);
    if (index == "*") {
      ep.target = -1;
    } else if (!ParseWhole(index, &ep.target) || ep.target < 0) {
      return LineError(lineno, "bad target index '" + target + "'");
    }
    // Type: the name plus the target kind pick the entry, so "crash" resolves
    // to host/nic/switch crash by prefix.
    const TypeInfo* info = nullptr;
    bool name_known = false;
    for (const TypeInfo& candidate : kTypes) {
      if (tok[1] == candidate.name) {
        name_known = true;
        if (candidate.kind == prefix->kind) {
          info = &candidate;
          break;
        }
      }
    }
    if (!name_known) {
      return LineError(lineno, "unknown fault type '" + tok[1] + "'");
    }
    if (info == nullptr) {
      return LineError(lineno, std::string("fault type '") + tok[1] +
                                   "' does not apply to target '" + target + "'");
    }
    ep.type = info->type;
    // Window.
    if (!ParseTime(tok[2], &ep.start) || ep.start < 0) {
      return LineError(lineno, "bad start time '" + tok[2] + "'");
    }
    if (!ParseTime(tok[3], &ep.end)) {
      return LineError(lineno, "bad end time '" + tok[3] + "'");
    }
    if (ep.end >= 0 && ep.end < ep.start) {
      return LineError(lineno, "episode ends before it starts");
    }
    if (IsCrashFault(ep.type)) {
      ep.end = -1;  // a crash is an instant; any window text is ignored
    }
    // key=value parameters.
    for (size_t i = 4; i < tok.size(); ++i) {
      const size_t eq = tok[i].find('=');
      if (eq == std::string::npos) {
        return LineError(lineno, "expected key=value, got '" + tok[i] + "'");
      }
      const std::string key = tok[i].substr(0, eq);
      const std::string value = tok[i].substr(eq + 1);
      bool ok = false;
      if (key == "p_gb") {
        ok = ParseProb(value, &ep.p_good_to_bad);
      } else if (key == "p_bg") {
        ok = ParseProb(value, &ep.p_bad_to_good);
      } else if (key == "loss_good") {
        ok = ParseProb(value, &ep.loss_good);
      } else if (key == "loss_bad") {
        ok = ParseProb(value, &ep.loss_bad);
      } else if (key == "p") {
        ok = ParseProb(value, &ep.p);
      } else if (key == "delay" || key == "max") {
        ok = ParseTime(value, &ep.delay) && ep.delay >= 0;
      } else if (key == "restart_after") {
        ok = ParseTime(value, &ep.restart_after) && ep.restart_after >= 0;
      } else {
        return LineError(lineno, "unknown key '" + key + "'");
      }
      if (!ok) {
        return LineError(lineno, "bad value for '" + key + "': '" + value + "'");
      }
      if (!KeyApplies(ep.type, key)) {
        return LineError(lineno, "'" + key + "' does not apply to '" + tok[1] + "' episodes");
      }
    }
    plan.episodes.push_back(ep);
  }
  return plan;
}

Result<FaultPlan> FaultPlan::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open fault plan '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  Result<FaultPlan> plan = Parse(text.str());
  if (!plan.ok()) {
    return Status(plan.status().code(), path + ": " + plan.status().message());
  }
  return plan;
}

std::string FaultEpisode::ToString() const {
  std::ostringstream os;
  os << TargetPrefix(FaultTargetKindOf(type));
  if (target < 0) {
    os << "*";
  } else {
    os << target;
  }
  os << ' ' << FaultTypeName(type) << ' ' << FormatTime(start) << ' ' << FormatTime(end);
  switch (type) {
    case FaultType::kBurstLoss:
      os << " p_gb=" << FormatProb(p_good_to_bad) << " p_bg=" << FormatProb(p_bad_to_good)
         << " loss_good=" << FormatProb(loss_good) << " loss_bad=" << FormatProb(loss_bad);
      break;
    case FaultType::kReorder:
      os << " p=" << FormatProb(p) << " delay=" << FormatTime(delay);
      break;
    case FaultType::kDuplicate:
    case FaultType::kSilentDrop:
    case FaultType::kDmaReadError:
    case FaultType::kDmaWriteError:
      os << " p=" << FormatProb(p);
      break;
    case FaultType::kJitter:
      os << " max=" << FormatTime(delay);
      break;
    case FaultType::kLinkDown:
      break;
    case FaultType::kHostCrash:
    case FaultType::kNicCrash:
    case FaultType::kSwitchCrash:
      if (restart_after >= 0) {
        os << " restart_after=" << FormatTime(restart_after);
      }
      break;
  }
  return os.str();
}

std::string FaultPlan::ToString() const {
  std::string text = "seed " + std::to_string(seed) + "\n";
  for (const FaultEpisode& ep : episodes) {
    text += ep.ToString() + "\n";
  }
  return text;
}

FaultPlan MakeRandomPlan(uint64_t seed, SimTime horizon) {
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xC845u);
  // Windows are drawn in whole nanoseconds: SimTime ticks are picoseconds,
  // but the plan text format bottoms out at "ns", and generated plans must
  // survive the ToString() -> Parse() round trip exactly (CI replays dumped
  // plan artifacts).
  const auto window = [&](SimTime min_len, SimTime max_len) {
    FaultEpisode ep;
    ep.start = Ns(int64_t(rng.Below(uint64_t(horizon / 2 / kNs))));
    ep.end = ep.start + Ns(int64_t(rng.Range(uint64_t(min_len / kNs), uint64_t(max_len / kNs))));
    return ep;
  };
  const int n = int(rng.Range(2, 5));
  for (int i = 0; i < n; ++i) {
    FaultEpisode ep = window(horizon / 20, horizon / 4);
    ep.target = -1;  // all link sides
    switch (rng.Below(4)) {
      case 0:
        ep.type = FaultType::kBurstLoss;
        ep.p_good_to_bad = 0.01 + 0.04 * rng.NextDouble();
        ep.p_bad_to_good = 0.2 + 0.3 * rng.NextDouble();
        ep.loss_good = 0;
        ep.loss_bad = 0.3 + 0.4 * rng.NextDouble();
        break;
      case 1:
        ep.type = FaultType::kReorder;
        ep.p = 0.02 + 0.05 * rng.NextDouble();
        ep.delay = Us(int64_t(rng.Range(2, 20)));
        break;
      case 2:
        ep.type = FaultType::kDuplicate;
        ep.p = 0.02 + 0.08 * rng.NextDouble();
        break;
      default:
        ep.type = FaultType::kJitter;
        ep.delay = Ns(int64_t(rng.Range(100, 3000)));
        break;
    }
    plan.episodes.push_back(ep);
  }
  // A short, hard link flap: long enough to force retransmissions, short
  // enough that the default retry budget usually (but not always) survives.
  {
    FaultEpisode ep = window(horizon / 50, horizon / 10);
    ep.target = -1;
    ep.type = FaultType::kLinkDown;
    plan.episodes.push_back(ep);
  }
  if (rng.Chance(0.5)) {
    FaultEpisode ep = window(horizon / 20, horizon / 5);
    ep.target = -1;
    ep.type = rng.Chance(0.5) ? FaultType::kDmaReadError : FaultType::kDmaWriteError;
    ep.p = 0.05 + 0.1 * rng.NextDouble();
    plan.episodes.push_back(ep);
  }
  return plan;
}

FaultPlan MakeCrashPlan(uint64_t seed, SimTime horizon, int num_hosts,
                        int num_switches) {
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xC0FFEEull);
  // Crash points land in [10%, 60%] of the horizon, restart delays in
  // [2%, 20%]: the component is back with at least a third of the run left,
  // so leases re-acquire and sessions drain. Whole-ns draws — see
  // MakeRandomPlan for why.
  const auto crash_at = [&] {
    return Ns(int64_t(rng.Range(uint64_t(horizon / 10 / kNs), uint64_t(horizon * 6 / 10 / kNs))));
  };
  const auto restart_delay = [&] {
    return Ns(int64_t(rng.Range(uint64_t(horizon / 50 / kNs), uint64_t(horizon / 5 / kNs))));
  };
  const int n = 1 + int(rng.Below(2));
  for (int i = 0; i < n; ++i) {
    FaultEpisode ep;
    ep.type = rng.Chance(0.5) ? FaultType::kHostCrash : FaultType::kNicCrash;
    // Spare node 0: crashing every node at once leaves no survivor to detect
    // the death, and node 0 is the canonical observer in the scenarios.
    ep.target = num_hosts > 1 ? 1 + int(rng.Below(uint64_t(num_hosts - 1))) : 0;
    ep.start = crash_at();
    ep.restart_after = restart_delay();
    plan.episodes.push_back(ep);
  }
  if (num_switches > 0 && rng.Chance(0.4)) {
    FaultEpisode ep;
    ep.type = FaultType::kSwitchCrash;
    ep.target = int(rng.Below(uint64_t(num_switches)));
    ep.start = crash_at();
    ep.restart_after = restart_delay() / 4;  // switches come back fast
    plan.episodes.push_back(ep);
  }
  if (rng.Chance(0.5)) {
    // A concurrent link fault so recovery overlaps an unreliable wire.
    FaultEpisode ep;
    ep.target = -1;
    ep.type = FaultType::kDuplicate;
    ep.p = 0.02 + 0.05 * rng.NextDouble();
    ep.start = Ns(int64_t(rng.Below(uint64_t(horizon / 2 / kNs))));
    ep.end = ep.start + Ns(int64_t(rng.Range(uint64_t(horizon / 20 / kNs), uint64_t(horizon / 4 / kNs))));
    plan.episodes.push_back(ep);
  }
  return plan;
}

}  // namespace strom
