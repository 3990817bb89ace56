// Retransmission Timer (paper §4.1): one timer per queue pair, detecting
// packet loss. The hardware keeps an array of time intervals in on-chip
// memory and continuously decrements all active timers; the event-driven
// equivalent keeps one cancellable simulator timer per QP: re-arming
// physically moves the pending deadline and cancelling physically removes
// it, so no stale expiry event ever pops through the event queue.
// Exponential backoff doubles the interval on consecutive timeouts. A QP's
// timer entry is part of its one record (RoceStack::QpState).
#ifndef SRC_ROCE_RETRANS_TIMER_H_
#define SRC_ROCE_RETRANS_TIMER_H_

#include <functional>

#include "src/common/types.h"
#include "src/sim/simulator.h"

namespace strom {

class RetransTimer {
 public:
  using ExpiryHandler = std::function<void(Qpn)>;

  // One QP's timer. The simulator timer is created at the first arm and
  // kept for good: a cancellable timer holds its event-queue slot for life
  // (DESIGN.md §13), so an entry is never reset.
  struct Entry {
    Simulator::TimerHandle handle;
    SimTime current_timeout = 0;
  };

  RetransTimer(Simulator& sim, SimTime timeout, SimTime timeout_max);

  void SetExpiryHandler(ExpiryHandler handler) { on_expiry_ = std::move(handler); }

  // Arms (or re-arms, resetting backoff) QP `qpn`'s timer.
  void Arm(Qpn qpn, Entry& e);
  // Re-arms keeping the current backoff level (after a timeout-driven resend).
  void RearmBackoff(Qpn qpn, Entry& e);
  // Stops the timer (all outstanding packets acknowledged).
  void Cancel(const Entry& e);

  bool IsArmed(const Entry& e) const { return sim_.TimerPending(e.handle); }
  uint64_t expirations() const { return expirations_; }

  // Timer-churn counters (metrics registry): arms/re-arms, cancels of a
  // pending deadline, and the dead events the handle API keeps out of the
  // queue (each re-arm or cancel of a pending timer would have left a
  // generation-checked tombstone to pop at expiry in the old design).
  uint64_t timers_armed() const { return timers_armed_; }
  uint64_t timers_cancelled() const { return timers_cancelled_; }
  uint64_t stale_expiries_eliminated() const { return stale_expiries_eliminated_; }

 private:
  void ArmAt(Qpn qpn, Entry& e);
  void Fire(Qpn qpn);

  Simulator& sim_;
  SimTime timeout_;
  SimTime timeout_max_;
  ExpiryHandler on_expiry_;
  uint64_t expirations_ = 0;
  uint64_t timers_armed_ = 0;
  uint64_t timers_cancelled_ = 0;
  uint64_t stale_expiries_eliminated_ = 0;
};

}  // namespace strom

#endif  // SRC_ROCE_RETRANS_TIMER_H_
