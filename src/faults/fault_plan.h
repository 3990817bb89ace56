// Deterministic fault plans: a small text format describing timed, seeded
// fault episodes against link sides, the PCIe/DMA path, or whole components
// (hosts, NICs, switches). A plan is pure data — the FaultEngine
// (fault_engine.h) interprets it against a testbed.
//
// Grammar (one directive per line, '#' starts a comment):
//
//   seed <N>
//   <target> <type> <start> <end> [key=value ...]
//
// target:  linkK   one transmit direction (K is a global side index: the
//                  direct link's sides are link0/link1; switch-port links
//                  continue the numbering)
//          link*   every link side
//          dmaK    node K's DMA engine
//          dma*    every DMA engine
//          hostK   node K, host + NIC as one failure domain
//          nicK    node K's NIC only (host software survives)
//          switchK fabric switch K (leaves first, then spines)
//          host* / nic* / switch*   every such component
//   times: an integer with a unit suffix (ns|us|ms|s), or '-' for an
//          open-ended episode.
//   types (link targets):
//     burst_loss  p_gb= p_bg= loss_good= loss_bad=   Gilbert–Elliott loss;
//                 state evolves once per frame entering Send()
//     reorder     p= delay=<time>    chance p to hold a frame back by delay
//     duplicate   p=                 chance p to deliver a frame twice
//     jitter      max=<time>         uniform extra delay in [0, max]
//     down        (no params)        drop everything: a timed link flap
//     silent_drop p=                 chance p a frame vanishes WITHOUT being
//                 counted as dropped — deliberately breaks link conservation
//                 so the --audit invariants can be exercised end to end.
//                 Never emitted by MakeRandomPlan (chaos soaks must stay
//                 audit-clean); for tests and drills only.
//   types (dma targets):
//     read_error  p=                 chance p a DMA read completes in error
//     write_error p=                 chance p a DMA write completes in error
//   types (host/nic/switch targets):
//     crash       [restart_after=<time>]
//                 The component dies at <start>, atomically dropping all
//                 in-flight state it owns (QP tables, DMA backlog, egress
//                 FIFOs, kernel state). With restart_after it comes back
//                 that long after the crash (crash-recovery); without, it
//                 stays dead (crash-stop). <end> is ignored — a crash is an
//                 instant, not a window — and is written as '-'.
//
// Example:
//   seed 7
//   link0 burst_loss 10us 4ms p_gb=0.02 p_bg=0.3 loss_good=0 loss_bad=0.5
//   link* jitter 0us - max=2us
//   dma1 read_error 1ms 2ms p=0.1
//   host1 crash 300us - restart_after=150us
//   switch0 crash 1ms -
#ifndef SRC_FAULTS_FAULT_PLAN_H_
#define SRC_FAULTS_FAULT_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sim/time.h"

namespace strom {

enum class FaultType {
  kBurstLoss,
  kReorder,
  kDuplicate,
  kJitter,
  kLinkDown,
  kSilentDrop,
  kDmaReadError,
  kDmaWriteError,
  kHostCrash,
  kNicCrash,
  kSwitchCrash,
};

// What a fault episode targets; determines the plan-grammar prefix and which
// attachment the FaultEngine aims the episode at.
enum class FaultTargetKind {
  kLink,    // one transmit direction of a point-to-point link
  kDma,     // a node's DMA engine
  kHost,    // a node: host + NIC as one failure domain
  kNic,     // a node's NIC only
  kSwitch,  // a fabric switch
};

const char* FaultTypeName(FaultType type);
FaultTargetKind FaultTargetKindOf(FaultType type);
bool IsLinkFault(FaultType type);
// host_crash / nic_crash / switch_crash.
bool IsCrashFault(FaultType type);

struct FaultEpisode {
  FaultType type = FaultType::kLinkDown;
  int target = -1;       // link side / node index / switch index; -1 = wildcard
  SimTime start = 0;
  SimTime end = -1;      // -1 = open-ended (ignored for crash episodes)
  // Gilbert–Elliott burst loss.
  double p_good_to_bad = 0;
  double p_bad_to_good = 0;
  double loss_good = 0;
  double loss_bad = 0;
  // reorder / duplicate / dma errors.
  double p = 0;
  // reorder hold-back time / jitter bound.
  SimTime delay = 0;
  // Crash episodes: time from crash to restart; -1 = crash-stop (never
  // restarts).
  SimTime restart_after = -1;

  bool ActiveAt(SimTime now) const {
    return now >= start && (end < 0 || now < end);
  }
  bool Matches(int target_index) const {
    return target < 0 || target == target_index;
  }
  // The episode's plan line, without the newline.
  std::string ToString() const;
};

struct FaultPlan {
  uint64_t seed = 1;
  std::vector<FaultEpisode> episodes;

  // Parses the text grammar above. Returns the first syntax error with its
  // line number.
  static Result<FaultPlan> Parse(const std::string& text);
  // Reads `path` and parses it.
  static Result<FaultPlan> Load(const std::string& path);

  // Serializes back to the text grammar (round-trips through Parse); used to
  // dump failing plans as CI artifacts.
  std::string ToString() const;
};

// Generates a small randomized plan from `seed` for chaos soaks: 2–5 link
// episodes plus an optional DMA-error episode, with probabilities moderate
// enough that traffic keeps making progress between faults. Deterministic in
// `seed` and `horizon`. Never emits crash episodes — see MakeCrashPlan.
FaultPlan MakeRandomPlan(uint64_t seed, SimTime horizon);

// Generates a crash-recovery plan from `seed`: 1–2 node crash episodes
// (host or NIC level, always with restart_after so traffic can recover), an
// optional switch crash when `num_switches > 0`, and an optional concurrent
// link-fault episode. Crash points land in the first 60% of the horizon and
// restart delays stay well under the remainder, so a drain window exists.
// All times are whole nanoseconds (the text format round-trips exactly).
FaultPlan MakeCrashPlan(uint64_t seed, SimTime horizon, int num_hosts,
                        int num_switches = 0);

}  // namespace strom

#endif  // SRC_FAULTS_FAULT_PLAN_H_
