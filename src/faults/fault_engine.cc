#include "src/faults/fault_engine.h"

#include "src/common/logging.h"

namespace strom {

FaultEngine::FaultEngine(Simulator& sim, std::shared_ptr<const FaultPlan> plan)
    : sim_(sim), plan_(std::move(plan)) {
  STROM_CHECK(plan_ != nullptr);
}

FaultEngine::Stream& FaultEngine::StreamFor(size_t episode_index, int target_index) {
  const auto key = std::make_pair(episode_index, target_index);
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    // Seed depends only on (plan seed, episode, target): decisions don't
    // shift when unrelated attachments or episodes are added.
    SplitMix64 sm(plan_->seed + 0x9E3779B97F4A7C15ull * (episode_index + 1) +
                  0xC2B2AE3D27D4EB4Full * uint64_t(target_index + 1));
    it = streams_.emplace(key, Stream{Rng(sm.Next())}).first;
  }
  return it->second;
}

void FaultEngine::AttachLink(PointToPointLink& link, int side_base) {
  link.SetFaultHook([this, side_base](int side, SimTime now) {
    return OnFrame(side_base + side, now);
  });
}

void FaultEngine::AttachDma(int node_index, DmaEngine& dma) {
  dma.SetFaultHook([this, node_index](bool is_write, SimTime now) {
    return OnDmaCommand(node_index, is_write, now);
  });
}

LinkFaultDecision FaultEngine::OnFrame(int global_side, SimTime now) {
  LinkFaultDecision decision;
  for (size_t i = 0; i < plan_->episodes.size(); ++i) {
    const FaultEpisode& ep = plan_->episodes[i];
    if (!IsLinkFault(ep.type) || !ep.Matches(global_side) || !ep.ActiveAt(now)) {
      continue;
    }
    Stream& st = StreamFor(i, global_side);
    switch (ep.type) {
      case FaultType::kLinkDown:
        decision.drop = true;
        break;
      case FaultType::kBurstLoss: {
        // Evolve the Gilbert–Elliott chain once per frame, then sample loss
        // in the resulting state. Always consume the same number of RNG
        // draws so episodes compose deterministically.
        if (st.bad) {
          if (st.rng.Chance(ep.p_bad_to_good)) {
            st.bad = false;
          }
        } else if (st.rng.Chance(ep.p_good_to_bad)) {
          st.bad = true;
        }
        const double loss = st.bad ? ep.loss_bad : ep.loss_good;
        if (loss > 0 && st.rng.Chance(loss)) {
          decision.drop = true;
        }
        break;
      }
      case FaultType::kReorder:
        if (st.rng.Chance(ep.p)) {
          decision.reorder = true;
          decision.extra_delay = std::max(decision.extra_delay, ep.delay);
        }
        break;
      case FaultType::kDuplicate:
        if (st.rng.Chance(ep.p)) {
          decision.duplicate = true;
        }
        break;
      case FaultType::kSilentDrop:
        if (st.rng.Chance(ep.p)) {
          decision.silent = true;
        }
        break;
      case FaultType::kJitter:
        if (ep.delay > 0) {
          decision.extra_delay += SimTime(st.rng.Below(uint64_t(ep.delay) + 1));
        }
        break;
      default:
        break;
    }
  }
  if (decision.drop) {
    ++counters_.frames_dropped;
  } else if (decision.silent) {
    // The engine remembers the injection even though the link (by design)
    // won't: this is the ground truth an audit violation is checked against.
    ++counters_.frames_silently_dropped;
  } else {
    // Dropped frames never reach the wire, so delay/duplication on them is
    // moot; count only what the receiver can observe.
    if (decision.extra_delay > 0) {
      ++counters_.frames_delayed;
    }
    if (decision.duplicate) {
      ++counters_.frames_duplicated;
    }
  }
  return decision;
}

Status FaultEngine::OnDmaCommand(int node_index, bool is_write, SimTime now) {
  for (size_t i = 0; i < plan_->episodes.size(); ++i) {
    const FaultEpisode& ep = plan_->episodes[i];
    if (FaultTargetKindOf(ep.type) != FaultTargetKind::kDma ||
        !ep.Matches(node_index) || !ep.ActiveAt(now)) {
      continue;
    }
    const bool wants_write = ep.type == FaultType::kDmaWriteError;
    if (wants_write != is_write) {
      continue;
    }
    Stream& st = StreamFor(i, node_index);
    if (st.rng.Chance(ep.p)) {
      if (is_write) {
        ++counters_.dma_write_errors;
        return InternalError("injected DMA write fault");
      }
      ++counters_.dma_read_errors;
      return InternalError("injected DMA read fault");
    }
  }
  return Status::Ok();
}

void FaultEngine::ArmCrashes(FaultTargetKind kind, int target_index,
                             std::function<void(const FaultEpisode&)> crash_cb,
                             std::function<void(const FaultEpisode&)> restart_cb) {
  for (size_t i = 0; i < plan_->episodes.size(); ++i) {
    const FaultEpisode& ep = plan_->episodes[i];
    if (!IsCrashFault(ep.type) || FaultTargetKindOf(ep.type) != kind ||
        !ep.Matches(target_index)) {
      continue;
    }
    sim_.ScheduleAt(ep.start, [this, &ep, crash_cb] {
      switch (ep.type) {
        case FaultType::kHostCrash:
          ++counters_.hosts_crashed;
          break;
        case FaultType::kNicCrash:
          ++counters_.nics_crashed;
          break;
        default:
          ++counters_.switches_crashed;
          break;
      }
      crash_cb(ep);
    });
    if (ep.restart_after >= 0 && restart_cb) {
      sim_.ScheduleAt(ep.start + ep.restart_after, [this, &ep, restart_cb] {
        ++counters_.restarts;
        restart_cb(ep);
      });
    }
  }
}

}  // namespace strom
