// Discrete-event simulator: a virtual clock plus an ordered event queue.
// Components schedule callbacks; coroutine tasks (src/sim/task.h) await
// delays and events on top of this.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace strom {

template <typename T>
class ValueTask;
using Task = ValueTask<void>;

class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Handle to a cancellable timer (see ScheduleCancellable below). Copyable
  // value; default-constructed handles are invalid.
  using TimerHandle = EventQueue::TimerId;

  SimTime now() const { return now_; }
  uint64_t events_processed() const { return events_processed_; }

  // Schedules `fn` to run `delay` from now (delay >= 0). The callable is
  // built in its queue slot and runs there (DESIGN.md §13).
  template <typename F>
  void Schedule(SimTime delay, F&& fn) {
    STROM_CHECK_GE(delay, 0);
    queue_.Push(now_ + delay, std::forward<F>(fn));
  }

  // Schedules `fn` at absolute time `when` (>= now()).
  template <typename F>
  void ScheduleAt(SimTime when, F&& fn) {
    STROM_CHECK_GE(when, now_);
    queue_.Push(when, std::forward<F>(fn));
  }

  // Cancellable timers. ScheduleCancellable installs `fn` once and arms it
  // `delay` from now; the returned handle can Cancel (physically removing the
  // pending entry — no tombstone pops through the queue) or Reschedule
  // (moving the deadline and reusing the installed callback, so periodic
  // re-arming is allocation-free). After firing, the handle stays valid and
  // can be re-armed with Reschedule — including from inside the callback.
  template <typename F>
  TimerHandle ScheduleCancellable(SimTime delay, F&& fn) {
    STROM_CHECK_GE(delay, 0);
    return ScheduleCancellableAt(now_ + delay, std::forward<F>(fn));
  }
  template <typename F>
  TimerHandle ScheduleCancellableAt(SimTime when, F&& fn) {
    STROM_CHECK_GE(when, now_);
    const TimerHandle h = queue_.CreateTimer(std::forward<F>(fn));
    queue_.ArmTimer(h, when);
    return h;
  }
  // Disarms a pending timer. Returns whether it was pending (false = already
  // fired, never armed, or invalid handle).
  bool Cancel(TimerHandle h);
  // Moves (or re-arms, if idle) the timer's deadline.
  void Reschedule(TimerHandle h, SimTime delay);
  void RescheduleAt(TimerHandle h, SimTime when);
  bool TimerPending(TimerHandle h) const { return queue_.TimerPending(h); }

  // Runs a single event; returns false if the queue is empty.
  bool Step();

  // Runs until no events remain.
  void RunUntilIdle();

  // Runs events with time <= now() + duration; advances the clock to that
  // horizon even if the queue drains earlier.
  void RunFor(SimTime duration);

  // Runs until `pred()` is true (checked after every event) or the queue
  // drains. Returns whether the predicate was satisfied.
  template <typename Pred>
  bool RunUntil(Pred&& pred) {
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

  // Takes ownership of a coroutine task and starts it. The simulator keeps
  // the task alive until it completes (finished frames are swept lazily).
  void Spawn(Task task);

  // Number of spawned tasks that have not yet completed.
  size_t pending_tasks() const;

  // Number of events waiting in the queue. A parked poll is not one: it
  // waits for a write, which only an event can make (DESIGN.md §13). The
  // running event has already been popped, so a periodic callback (e.g. the
  // telemetry sampler) can stop rescheduling itself when this hits zero
  // without wedging RunUntilIdle().
  size_t pending_events() const { return queue_.size(); }

 private:
  void SweepTasks();

  SimTime now_ = 0;
  EventQueue queue_;
  uint64_t events_processed_ = 0;
  std::vector<Task> tasks_;
};

}  // namespace strom

#endif  // SRC_SIM_SIMULATOR_H_
