#include "src/sim/lp_scheduler.h"

#include <algorithm>

#include "src/common/frame_buf.h"
#include "src/common/logging.h"

namespace strom {

LpScheduler::LpScheduler(int num_threads) : num_threads_(std::max(1, num_threads)) {}

LpScheduler::~LpScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

int LpScheduler::AddLp(Simulator* sim) {
  STROM_CHECK(workers_.empty()) << "cannot add LPs after the first parallel window";
  sim->SetLpScheduler(this);
  lps_.push_back(sim);
  return static_cast<int>(lps_.size()) - 1;
}

SpscChannel* LpScheduler::AddChannel(Simulator* dst) {
  channels_.push_back(std::make_unique<SpscChannel>(dst));
  return channels_.back().get();
}

void LpScheduler::NoteLinkLookahead(SimTime propagation) {
  STROM_CHECK_GT(propagation, 0) << "cross-LP links need nonzero propagation delay";
  if (lookahead_ == 0 || propagation < lookahead_) {
    lookahead_ = propagation;
  }
}

SimTime LpScheduler::NextEventTimeGlobal() const {
  SimTime t = Simulator::kNoEvent;
  for (Simulator* lp : lps_) {
    t = std::min(t, lp->NextEventTime());
  }
  return t;
}

void LpScheduler::DrainChannels() {
  for (auto& channel : channels_) {
    Simulator* dst = channel->dst();
    channel->Drain([dst](SpscChannel::Item& item) {
      dst->ScheduleAt(item.when, std::move(item.fn));
    });
  }
}

void LpScheduler::AlignClocks(SimTime t) {
  for (Simulator* lp : lps_) {
    lp->AdvanceTo(t);
  }
}

void LpScheduler::RunShare(int share, SimTime horizon) {
  for (size_t i = static_cast<size_t>(share); i < lps_.size();
       i += static_cast<size_t>(num_threads_)) {
    lps_[i]->RunWindow(horizon);
  }
}

void LpScheduler::StartWorkers() {
  if (!workers_.empty()) {
    return;
  }
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int share = 1; share < num_threads_; ++share) {
    workers_.emplace_back([this, share] { WorkerLoop(share); });
  }
}

void LpScheduler::WorkerLoop(int share) {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [&] { return shutdown_ || epoch_ != seen; });
    if (shutdown_) {
      return;
    }
    seen = epoch_;
    const SimTime horizon = window_horizon_;
    lock.unlock();
    RunShare(share, horizon);
    lock.lock();
    if (--workers_running_ == 0) {
      cv_done_.notify_one();
    }
  }
}

void LpScheduler::ExecuteWindow(SimTime horizon) {
  if (!lookahead_checked_) {
    STROM_CHECK_GT(lookahead_, 0)
        << "LpScheduler needs at least one bound cross-LP link before running";
    lookahead_checked_ = true;
  }
  ++windows_executed_;
  barrier_time_ = horizon;
  if (serialize_epochs_ || num_threads_ <= 1 || lps_.size() <= 1) {
    for (Simulator* lp : lps_) {
      lp->RunWindow(horizon);
    }
    return;
  }
  // A frame can now be referenced from two LPs at once (sender retransmit
  // buffer + in-flight channel item), so refcounts must go atomic before the
  // first concurrent window.
  EnableMtFrameMode();
  StartWorkers();
  ++parallel_windows_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    window_horizon_ = horizon;
    ++epoch_;
    workers_running_ = static_cast<int>(workers_.size());
  }
  cv_work_.notify_all();
  RunShare(0, horizon);
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return workers_running_ == 0; });
}

void LpScheduler::RunUntilIdle() {
  for (;;) {
    DrainChannels();
    const SimTime t = NextEventTimeGlobal();
    if (t == Simulator::kNoEvent) {
      break;
    }
    ExecuteWindow(t + lookahead_);
  }
  AlignClocks(barrier_time_);
}

bool LpScheduler::RunUntil(const std::function<bool()>& pred) {
  for (;;) {
    DrainChannels();
    if (pred()) {
      AlignClocks(std::min(barrier_time_, NextEventTimeGlobal()));
      return true;
    }
    const SimTime t = NextEventTimeGlobal();
    if (t == Simulator::kNoEvent) {
      AlignClocks(barrier_time_);
      return false;
    }
    ExecuteWindow(t + lookahead_);
  }
}

void LpScheduler::RunFor(Simulator* caller, SimTime duration) {
  const SimTime horizon = caller->now() + duration;
  for (;;) {
    DrainChannels();
    const SimTime t = NextEventTimeGlobal();
    if (t > horizon) {  // also covers kNoEvent
      break;
    }
    // Legacy RunFor runs events with when <= horizon, so cap the strict
    // window bound at horizon + 1.
    ExecuteWindow(std::min(t + lookahead_, horizon + 1));
  }
  AlignClocks(horizon);
}

bool LpScheduler::StepGlobal() {
  DrainChannels();
  Simulator* next = nullptr;
  SimTime t = Simulator::kNoEvent;
  for (Simulator* lp : lps_) {
    const SimTime lt = lp->NextEventTime();
    if (lt < t) {  // strict: ties go to the lowest LP index
      t = lt;
      next = lp;
    }
  }
  if (next == nullptr) {
    return false;
  }
  next->StepLocal();
  // Align every clock to the executed event so work posted between steps
  // (Testbed drive loops) is never in another LP's past.
  barrier_time_ = std::max(barrier_time_, t);
  AlignClocks(t);
  return true;
}

uint64_t LpScheduler::events_processed() const {
  uint64_t n = 0;
  for (const Simulator* lp : lps_) {
    n += lp->events_processed();
  }
  return n;
}

size_t LpScheduler::pending_events() const {
  size_t n = 0;
  for (const Simulator* lp : lps_) {
    n += lp->pending_events();
  }
  for (const auto& channel : channels_) {
    n += channel->size();
  }
  return n;
}

}  // namespace strom
