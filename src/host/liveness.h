// Lease-based peer liveness (ISSUE 10 / DESIGN.md §14). Each host runs one
// LivenessMonitor owning a per-peer lease state machine on cancellable
// timers (src/sim/simulator.h timer slab):
//
//   kHealthy      the lease timer fires every `lease_interval`; a successful
//                 keepalive probe renews the lease in place (Reschedule — no
//                 allocation, no new handle).
//   kDead         the probe failed: the peer is declared dead (kPeerDead
//                 flight record) and the same timer re-arms as an
//                 exponential-backoff reconnect attempt, until one succeeds.
//
// The keepalive probe reads the peer's ground-truth alive flag through a
// caller-provided closure instead of exchanging probe packets. This keeps
// clean-run wire traffic byte-identical (liveness adds zero frames) while
// modeling the detection *latency* faithfully: a dead peer is noticed only
// when the lease next expires, and recovery waits out the backoff schedule.
//
// The reconnect closure performs the out-of-band fresh-PSN handshake
// (Topology::ReconnectQp, src/testbed/topology.h, on the cable or a rack)
// once the peer probes alive again; the monitor then records kLeaseAcquired
// and returns to kHealthy.
#ifndef SRC_HOST_LIVENESS_H_
#define SRC_HOST_LIVENESS_H_

#include <functional>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"

namespace strom {

struct LivenessConfig {
  SimTime lease_interval = Us(20);  // keepalive period == lease duration
  SimTime backoff_initial = Us(10);
  SimTime backoff_max = Us(640);  // exponential backoff cap
};

struct LivenessCounters {
  uint64_t leases_renewed = 0;
  uint64_t peers_declared_dead = 0;
  uint64_t reconnect_attempts = 0;
  uint64_t leases_acquired = 0;
  uint64_t timers_cancelled_at_crash = 0;
};

class LivenessMonitor {
 public:
  LivenessMonitor(Simulator& sim, int host_index, LivenessConfig config = {});

  LivenessMonitor(const LivenessMonitor&) = delete;
  LivenessMonitor& operator=(const LivenessMonitor&) = delete;

  // Registers a peer. `peer_alive` is the keepalive probe (see header
  // comment); `reconnect` re-establishes every QP lane toward the peer with
  // fresh PSNs and is invoked with the 0-based attempt number that
  // succeeded. Call before Start().
  void AddPeer(int peer, std::function<bool()> peer_alive,
               std::function<void(int attempt)> reconnect);

  // Arms the lease timer of every registered peer.
  void Start();

  // Cancels every pending lease/backoff timer without touching peer state.
  // The workload layer calls this once its drain completes — leases re-arm
  // forever by design, so a run would otherwise never go idle.
  void Stop();

  // Local crash: every lease/backoff timer dies with the host (armed timers
  // are counted, matching the NIC stack's armed-at-crash census).
  void OnLocalCrash();
  // Local restart: all peer leases are void (this end lost its QPs), so
  // every peer enters the reconnect path regardless of its own health.
  void OnLocalRestart();

  // True while `peer`'s lease is current (kHealthy). The workload layer
  // gates posting on this to avoid spraying ops into a known-dead peer.
  bool PeerHealthy(int peer) const;

  void AttachFlightRecorder(FlightRecorder* recorder) { recorder_ = recorder; }
  void AttachTelemetry(Telemetry* telemetry, const std::string& process);

  const LivenessCounters& counters() const { return counters_; }

 private:
  enum class PeerState { kHealthy, kDead, kLocalDown };

  struct Peer {
    int index = -1;
    std::function<bool()> alive;
    std::function<void(int attempt)> reconnect;
    PeerState state = PeerState::kHealthy;
    int attempt = 0;
    SimTime backoff = 0;
    Simulator::TimerHandle timer;  // lease while kHealthy, backoff while kDead
  };

  // (Re)arms the peer's one timer `delay` from now: a lease renewal or a
  // backoff step, depending on the state it fires in.
  void Arm(Peer& p, SimTime delay);
  void OnTimer(size_t peer_slot);
  void DeclareDead(Peer& p);
  void Record(FlightRecordType type, const Peer& p) const;

  Simulator& sim_;
  int host_index_;
  LivenessConfig config_;
  std::vector<Peer> peers_;
  LivenessCounters counters_;
  FlightRecorder* recorder_ = nullptr;
  bool started_ = false;
};

}  // namespace strom

#endif  // SRC_HOST_LIVENESS_H_
