// Output-queued Ethernet switch with congestion signaling, the building block
// of every switched topology (src/fabric/fabric.h). Instead of hiding
// queueing inside a link's busy-until cursor, the switch keeps an *explicit*
// per-port egress FIFO and releases exactly one frame to the wire at a time.
// That makes queue depth an observable quantity, which is what congestion
// control needs:
//
//   * ECN: a frame enqueued while the egress queue is at or above
//     `ecn_threshold_bytes` is CE-marked in place (if it is ECT; see
//     MarkEcnCe), the signal DCQCN-enabled RoCE stacks react to.
//   * Tail drop: a frame that would push the queue past `egress_queue_bytes`
//     is dropped and counted; the RoCE go-back-N machinery recovers it.
//   * PFC (optional): crossing `pfc_xoff_bytes` sends an 802.3x pause frame
//     to the ingress port that contributed the frame; draining below
//     `pfc_xon_bytes` sends the quanta=0 resume. Hop-local only — pause
//     frames arriving *at* the switch are consumed and ignored (a
//     deliberate simplification; hosts honor pause, switches do not).
//
// Ports come in two flavors: endpoint ports (AddPort — the switch owns the
// link and transmits on side 1) and cable ports (ConnectTo — the callee owns
// the link, the peer switch transmits on side 0). Forwarding uses a static
// MAC table plus source learning, flooding unknown destinations.
#ifndef SRC_FABRIC_FABRIC_SWITCH_H_
#define SRC_FABRIC_FABRIC_SWITCH_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/netsim/link.h"

namespace strom {

class Auditor;

struct FabricSwitchConfig {
  uint64_t port_rate_bps = Gbps(10);
  SimTime forwarding_latency = Ns(600);  // lookup + crossbar, per frame
  size_t ip_mtu = 1500;
  // Egress queue capacity; a frame that would exceed it is tail-dropped.
  size_t egress_queue_bytes = 256 * 1024;
  // CE-mark ECT frames enqueued at or above this depth (DCQCN's Kmax=Kmin).
  size_t ecn_threshold_bytes = 64 * 1024;
  // 802.3x pause toward the contributing ingress port. Off by default: ECN
  // is the primary congestion signal; pause is the lossless-mode variant.
  bool pfc = false;
  size_t pfc_xoff_bytes = 128 * 1024;
  size_t pfc_xon_bytes = 32 * 1024;
  uint16_t pfc_quanta = 0xFFFF;  // effectively "until resumed"
};

struct FabricPortCounters {
  uint64_t frames_enqueued = 0;
  uint64_t frames_dequeued = 0;
  uint64_t ce_marked = 0;
  uint64_t tail_drops = 0;
  uint64_t pause_tx = 0;   // xoff frames sent upstream
  uint64_t resume_tx = 0;  // xon (quanta = 0) frames sent upstream
  uint64_t queue_bytes_peak = 0;
  // Frames sitting in this egress FIFO when the switch crashed. Conservation
  // becomes enqueued == dequeued + queued + crash_drops.
  uint64_t crash_drops = 0;
};

class FabricSwitch {
 public:
  FabricSwitch(Simulator& sim, FabricSwitchConfig config, std::string name = "fsw");

  // Endpoint-facing port: the switch owns the link and transmits on side 1;
  // attach the endpoint to side 0. Returns the port index.
  int AddPort();

  // Inter-switch cable: creates one full-duplex link owned by *this* switch.
  // Returns {port on this switch, port on peer}. Frames egressing either
  // port arrive at the other switch's ingress.
  std::pair<int, int> ConnectTo(FabricSwitch& peer);

  PointToPointLink& PortLink(int port) { return *ports_[port].link; }
  // The link side this switch transmits on (1 for owned ports/cables, 0 for
  // the peer end of a cable). Fault attachments need it to aim at a hop.
  int PortTxSide(int port) const { return ports_[port].tx_side; }
  bool OwnsPortLink(int port) const { return ports_[port].owned_link != nullptr; }
  int num_ports() const { return static_cast<int>(ports_.size()); }

  void AddStaticRoute(const MacAddr& mac, int port);

  // Taps every *owned* link (cable peer ends are tapped by the owner, so a
  // cable appears once). Interfaces are "<switch name>.port<i>.{0to1,1to0}".
  void AttachCapture(PcapWriter* writer);
  // Per-port gauges under "<process>.port<i>.*".
  void AttachTelemetry(Telemetry* telemetry, const std::string& process);
  // Per-port sampler probes: instantaneous queue_bytes plus cumulative
  // ce_marked / tail_drops, so timeseries show the congestion dynamics.
  void AttachSampler(Telemetry* telemetry, const std::string& process);
  // Extended per-port probes for --flow-stats runs: pause/resume activity and
  // enqueue/dequeue counts on top of the basic AttachSampler set. A separate
  // method so default runs keep their sampler output byte-identical.
  void AttachFlowSampler(Telemetry* telemetry, const std::string& process);

  // Per-port frame conservation: every frame enqueued was either dequeued or
  // is still sitting in the FIFO (tail drops never enter the queue and are
  // accounted separately). Valid at any point; teardown is the usual one.
  void AuditConservation(Auditor& auditor) const;

  // Frames currently queued on `port`'s egress FIFO.
  size_t PortQueueFrames(int port) const { return ports_[port].queue.size(); }

  // Crash-stop: every egress FIFO is dropped on the floor (pooled frames
  // released, drops counted per port so conservation audits stay exact), TX
  // serialization state dies, and until Restart() every arriving frame —
  // including ones already inside the forwarding pipeline — is discarded.
  // The MAC table and static routes survive (stable configuration).
  void Crash();
  void Restart();
  bool alive() const { return alive_; }
  // Frames discarded at ingress/forwarding while the switch was dead.
  uint64_t crash_ingress_drops() const { return crash_ingress_drops_; }

  const FabricPortCounters& counters(int port) const { return ports_[port].counters; }
  const std::string& name() const { return name_; }

  uint64_t frames_forwarded() const { return frames_forwarded_; }
  uint64_t frames_flooded() const { return frames_flooded_; }

 private:
  struct Pending {
    FrameBuf frame;
    TraceContext trace;
    int in_port;
  };
  struct Port {
    std::unique_ptr<PointToPointLink> owned_link;  // null on the peer end of a cable
    PointToPointLink* link = nullptr;
    int tx_side = 1;
    std::deque<Pending> queue;
    size_t queued_bytes = 0;
    bool tx_busy = false;
    std::set<int> paused_ingress;  // ingress ports xoff'd because of this queue
    FabricPortCounters counters;
  };

  int AddPortEntry(std::unique_ptr<PointToPointLink> owned, PointToPointLink* link,
                   int tx_side);
  void OnFrame(int in_port, FrameBuf frame, TraceContext trace);
  void Enqueue(int out_port, int in_port, FrameBuf frame, TraceContext trace);
  void DequeueNext(int out_port);
  void SendPause(int ingress_port, uint16_t quanta);

  Simulator& sim_;
  FabricSwitchConfig config_;
  std::string name_;
  MacAddr mac_;
  std::vector<Port> ports_;
  std::map<MacAddr, int> mac_table_;
  uint64_t frames_forwarded_ = 0;
  uint64_t frames_flooded_ = 0;
  bool alive_ = true;
  uint64_t crash_ingress_drops_ = 0;
  // Orphans per-port TX release events scheduled before a crash.
  uint64_t crash_epoch_ = 0;
};

}  // namespace strom

#endif  // SRC_FABRIC_FABRIC_SWITCH_H_
