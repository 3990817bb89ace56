#include "src/host/liveness.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace strom {

LivenessMonitor::LivenessMonitor(Simulator& sim, int host_index, LivenessConfig config)
    : sim_(sim), host_index_(host_index), config_(config) {
  STROM_CHECK_GT(config_.lease_interval, 0);
  STROM_CHECK_GT(config_.backoff_initial, 0);
}

void LivenessMonitor::AddPeer(int peer, std::function<bool()> peer_alive,
                              std::function<void(int attempt)> reconnect) {
  STROM_CHECK(!started_) << "AddPeer after Start()";
  Peer p;
  p.index = peer;
  p.alive = std::move(peer_alive);
  p.reconnect = std::move(reconnect);
  peers_.push_back(std::move(p));
}

void LivenessMonitor::Start() {
  STROM_CHECK(!started_);
  started_ = true;
  for (Peer& p : peers_) {
    Arm(p, config_.lease_interval);
  }
}

void LivenessMonitor::Record(FlightRecordType type, const Peer& p) const {
  if (recorder_ != nullptr) {
    recorder_->Record(sim_.now(), host_index_, type, /*opcode=*/0, /*qpn=*/0,
                      /*psn=*/uint32_t(p.attempt), /*aux=*/uint32_t(p.index));
  }
}

void LivenessMonitor::Arm(Peer& p, SimTime delay) {
  const size_t slot = size_t(&p - peers_.data());
  if (p.timer.valid()) {
    sim_.Reschedule(p.timer, delay);
  } else {
    p.timer = sim_.ScheduleCancellable(delay, [this, slot] { OnTimer(slot); });
  }
}

void LivenessMonitor::DeclareDead(Peer& p) {
  ++counters_.peers_declared_dead;
  p.state = PeerState::kDead;
  p.attempt = 0;
  p.backoff = config_.backoff_initial;
  Record(FlightRecordType::kPeerDead, p);
  Arm(p, p.backoff);
}

void LivenessMonitor::OnTimer(size_t peer_slot) {
  Peer& p = peers_[peer_slot];
  switch (p.state) {
    case PeerState::kHealthy:
      if (p.alive()) {
        ++counters_.leases_renewed;
        Arm(p, config_.lease_interval);
      } else {
        DeclareDead(p);
      }
      return;
    case PeerState::kDead: {
      ++counters_.reconnect_attempts;
      Record(FlightRecordType::kReconnectAttempt, p);
      if (p.alive()) {
        p.reconnect(p.attempt);
        ++counters_.leases_acquired;
        p.state = PeerState::kHealthy;
        Record(FlightRecordType::kLeaseAcquired, p);
        p.attempt = 0;
        Arm(p, config_.lease_interval);
        return;
      }
      ++p.attempt;
      p.backoff = std::min<SimTime>(p.backoff * 2, config_.backoff_max);
      Arm(p, p.backoff);
      return;
    }
    case PeerState::kLocalDown:
      return;  // stale fire after a local crash; timer stays idle
  }
}

void LivenessMonitor::Stop() {
  for (Peer& p : peers_) {
    if (p.timer.valid() && sim_.TimerPending(p.timer)) {
      sim_.Cancel(p.timer);
    }
  }
}

void LivenessMonitor::OnLocalCrash() {
  for (Peer& p : peers_) {
    if (p.timer.valid() && sim_.TimerPending(p.timer)) {
      ++counters_.timers_cancelled_at_crash;
      sim_.Cancel(p.timer);
    }
    p.state = PeerState::kLocalDown;
  }
}

void LivenessMonitor::OnLocalRestart() {
  // Every lease this host held is void: it lost its half of each
  // connection, so each peer goes straight to the reconnect path even when
  // the peer itself never crashed.
  for (Peer& p : peers_) {
    p.state = PeerState::kDead;
    p.attempt = 0;
    p.backoff = config_.backoff_initial;
    Record(FlightRecordType::kPeerDead, p);
    Arm(p, p.backoff);
  }
}

bool LivenessMonitor::PeerHealthy(int peer) const {
  for (const Peer& p : peers_) {
    if (p.index == peer) {
      return p.state == PeerState::kHealthy;
    }
  }
  return true;  // unmonitored peers are assumed healthy
}

void LivenessMonitor::AttachTelemetry(Telemetry* telemetry, const std::string& process) {
  const std::string prefix = process + ".liveness.";
  auto gauge = [&](const char* name, const uint64_t& field) {
    telemetry->metrics.AddGauge(prefix + name, [&field] { return double(field); });
  };
  gauge("leases_renewed", counters_.leases_renewed);
  gauge("peers_declared_dead", counters_.peers_declared_dead);
  gauge("reconnect_attempts", counters_.reconnect_attempts);
  gauge("leases_acquired", counters_.leases_acquired);
  gauge("timers_cancelled_at_crash", counters_.timers_cancelled_at_crash);
}

}  // namespace strom
