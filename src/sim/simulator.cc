#include "src/sim/simulator.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/sim/perf_stats.h"
#include "src/sim/task.h"

namespace strom {

Simulator::Simulator() = default;

Simulator::~Simulator() {
  AddSimEventsProcessed(events_processed_);
  // Drop pending events before destroying suspended coroutine frames so no
  // event outlives the frame it would resume.
  queue_.Clear();
  tasks_.clear();
}

void Simulator::Schedule(SimTime delay, EventQueue::Callback fn) {
  STROM_CHECK_GE(delay, 0);
  queue_.Push(now_ + delay, std::move(fn));
}

void Simulator::ScheduleAt(SimTime when, EventQueue::Callback fn) {
  STROM_CHECK_GE(when, now_);
  queue_.Push(when, std::move(fn));
}

void Simulator::SchedulePoll(SimTime interval, EventQueue::Poller& poller) {
  STROM_CHECK_GT(interval, 0);
  queue_.PushPoll(now_ + interval, &poller);
}

Simulator::TimerHandle Simulator::ScheduleCancellable(SimTime delay,
                                                      EventQueue::Callback fn) {
  STROM_CHECK_GE(delay, 0);
  return ScheduleCancellableAt(now_ + delay, std::move(fn));
}

Simulator::TimerHandle Simulator::ScheduleCancellableAt(SimTime when,
                                                        EventQueue::Callback fn) {
  STROM_CHECK_GE(when, now_);
  const TimerHandle h = queue_.CreateTimer(std::move(fn));
  queue_.ArmTimer(h, when);
  return h;
}

bool Simulator::Cancel(TimerHandle h) { return queue_.CancelTimer(h); }

void Simulator::Reschedule(TimerHandle h, SimTime delay) {
  STROM_CHECK_GE(delay, 0);
  queue_.ArmTimer(h, now_ + delay);
}

void Simulator::RescheduleAt(TimerHandle h, SimTime when) {
  STROM_CHECK_GE(when, now_);
  queue_.ArmTimer(h, when);
}

bool Simulator::Step() {
  if (queue_.empty()) {
    return false;
  }
  EventQueue::Event ev = queue_.Pop();
  STROM_CHECK_GE(ev.when, now_);
  now_ = ev.when;
  ++events_processed_;
  ev.Run();
  return true;
}

void Simulator::RunUntilIdle() {
  while (Step()) {
  }
  SweepTasks();
}

void Simulator::RunFor(SimTime duration) {
  const SimTime horizon = now_ + duration;
  while (!queue_.empty() && queue_.NextTime() <= horizon) {
    Step();
  }
  now_ = std::max(now_, horizon);
  SweepTasks();
}

bool Simulator::RunUntil(const std::function<bool()>& pred) {
  if (pred()) {
    return true;
  }
  while (Step()) {
    if (pred()) {
      SweepTasks();
      return true;
    }
  }
  SweepTasks();
  return false;
}

void Simulator::Spawn(Task task) {
  task.Start();
  if (!task.done()) {
    tasks_.push_back(std::move(task));
  }
  if (tasks_.size() > 64) {
    SweepTasks();
  }
}

size_t Simulator::pending_tasks() const {
  size_t n = 0;
  for (const auto& t : tasks_) {
    if (!t.done()) {
      ++n;
    }
  }
  return n;
}

void Simulator::SweepTasks() {
  tasks_.erase(std::remove_if(tasks_.begin(), tasks_.end(),
                              [](const Task& t) { return t.done(); }),
               tasks_.end());
}

}  // namespace strom
