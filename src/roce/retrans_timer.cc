#include "src/roce/retrans_timer.h"

#include <algorithm>

namespace strom {

RetransTimer::RetransTimer(Simulator& sim, SimTime timeout, SimTime timeout_max)
    : sim_(sim), timeout_(timeout), timeout_max_(timeout_max) {}

void RetransTimer::Arm(Qpn qpn, Entry& e) {
  e.current_timeout = timeout_;
  ArmAt(qpn, e);
}

void RetransTimer::RearmBackoff(Qpn qpn, Entry& e) {
  e.current_timeout = std::min(e.current_timeout * 2, timeout_max_);
  ArmAt(qpn, e);
}

void RetransTimer::Cancel(const Entry& e) {
  if (sim_.Cancel(e.handle)) {
    ++timers_cancelled_;
    ++stale_expiries_eliminated_;
  }
}

void RetransTimer::ArmAt(Qpn qpn, Entry& e) {
  ++timers_armed_;
  if (e.handle.valid()) {
    if (sim_.TimerPending(e.handle)) {
      ++stale_expiries_eliminated_;  // the old deadline is moved, not orphaned
    }
    sim_.Reschedule(e.handle, e.current_timeout);
  } else {
    e.handle =
        sim_.ScheduleCancellable(e.current_timeout, [this, qpn] { Fire(qpn); });
  }
}

void RetransTimer::Fire(Qpn qpn) {
  ++expirations_;
  if (on_expiry_) {
    on_expiry_(qpn);
  }
}

}  // namespace strom
