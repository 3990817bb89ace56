#include "src/sim/simulator.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/sim/task.h"

namespace strom {

Simulator::Simulator() = default;

Simulator::~Simulator() {
  // Drop pending events before destroying suspended coroutine frames so no
  // event outlives the frame it would resume.
  queue_.Clear();
  tasks_.clear();
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
  const EventQueue::Event ev = queue_.Pop();
  STROM_CHECK_GE(ev.when, now_);
  now_ = ev.when;
  ++events_processed_;
  queue_.Run(ev);
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
