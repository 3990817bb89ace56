// Discrete-event simulator: a virtual clock plus an ordered event queue.
// Components schedule callbacks; coroutine tasks (src/sim/task.h) await
// delays and events on top of this.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace strom {

template <typename T>
class ValueTask;
using Task = ValueTask<void>;

class LpScheduler;

class Simulator {
 public:
  // Sentinel returned by NextEventTime() on an empty queue; sorts after
  // every real timestamp.
  static constexpr SimTime kNoEvent = INT64_MAX;

  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Handle to a cancellable timer (see ScheduleCancellable below). Copyable
  // value; default-constructed handles are invalid.
  using TimerHandle = EventQueue::TimerId;

  SimTime now() const { return now_; }
  uint64_t events_processed() const { return events_processed_; }

  // Schedules `fn` to run `delay` from now (delay >= 0).
  void Schedule(SimTime delay, EventQueue::Callback fn);

  // Schedules `fn` at absolute time `when` (>= now()).
  void ScheduleAt(SimTime when, EventQueue::Callback fn);

  // Cancellable timers. ScheduleCancellable installs `fn` once and arms it
  // `delay` from now; the returned handle can Cancel (physically removing the
  // pending entry — no tombstone pops through the queue) or Reschedule
  // (moving the deadline and reusing the installed callback, so periodic
  // re-arming is allocation-free). After firing, the handle stays valid and
  // can be re-armed with Reschedule — including from inside the callback.
  TimerHandle ScheduleCancellable(SimTime delay, EventQueue::Callback fn);
  TimerHandle ScheduleCancellableAt(SimTime when, EventQueue::Callback fn);
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
  bool RunUntil(const std::function<bool()>& pred);

  // ---------------------------------------------------------------------
  // Conservative-parallel hooks (src/sim/lp_scheduler.h). When this
  // simulator is registered as a logical process, the public run loops
  // above delegate to the scheduler and drive the whole LP ensemble, so
  // existing call sites (benches, tests, workload drivers) need no changes.
  // With a scheduler bound, RunUntil's predicate is evaluated at epoch
  // barriers rather than after every event.
  // ---------------------------------------------------------------------

  void SetLpScheduler(LpScheduler* scheduler) { lp_ = scheduler; }
  LpScheduler* lp_scheduler() const { return lp_; }

  // Timestamp of the earliest queued event, kNoEvent when idle.
  SimTime NextEventTime() const { return queue_.empty() ? kNoEvent : queue_.NextTime(); }

  // Scheduler internals: these never delegate.
  // Runs queued events with when < horizon (strict); the clock stays at the
  // last executed event. Returns the number of events run.
  uint64_t RunWindow(SimTime horizon);
  // Advances the clock to `t` if it is ahead of now(). Requires every queued
  // event to be at or past `t` (the scheduler only aligns clocks at barriers
  // where that holds by construction).
  void AdvanceTo(SimTime t);
  // Step() without scheduler delegation.
  bool StepLocal();

  // Takes ownership of a coroutine task and starts it. The simulator keeps
  // the task alive until it completes (finished frames are swept lazily).
  void Spawn(Task task);

  // Number of spawned tasks that have not yet completed.
  size_t pending_tasks() const;

  // Number of events waiting in the queue. The running event has already
  // been popped, so a periodic callback (e.g. the telemetry sampler) can
  // stop rescheduling itself when this hits zero without wedging
  // RunUntilIdle().
  size_t pending_events() const { return queue_.size(); }

 private:
  void SweepTasks();

  SimTime now_ = 0;
  EventQueue queue_;
  uint64_t events_processed_ = 0;
  std::vector<Task> tasks_;
  LpScheduler* lp_ = nullptr;
};

}  // namespace strom

#endif  // SRC_SIM_SIMULATOR_H_
