// RoCE v2 network stack (paper §4.1, Fig 2): two pipelined data paths with
// state kept in the State Table, MSN Table, Multi-Queue and Retransmission
// Timer. Supports RDMA WRITE, RDMA READ, and the StRoM RDMA RPC / RDMA RPC
// WRITE verbs. Reliability: cumulative ACKs, NAK on PSN gap, go-back-N
// retransmission driven by per-QP timers.
//
// Timing model: the TX data path emits one packet every `Words(width)` clock
// cycles (II=1 word-serial pipeline — exactly line rate), both pipelines add
// a fixed latency, and the store-and-forward ICRC pass adds one cycle per
// data word (paper §7 explains why this makes 100 G latency flatter).
#ifndef SRC_ROCE_STACK_H_
#define SRC_ROCE_STACK_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/qpn_map.h"
#include "src/netsim/arp_table.h"
#include "src/pcie/dma_engine.h"
#include "src/proto/packet.h"
#include "src/roce/config.h"
#include "src/roce/multi_queue.h"
#include "src/roce/retrans_timer.h"
#include "src/roce/state_table.h"
#include "src/roce/work_request.h"
#include "src/sim/simulator.h"
#include "src/telemetry/pcap_writer.h"
#include "src/telemetry/telemetry.h"

namespace strom {

class Auditor;
class FlightRecorder;
class FlowStats;

class RoceStack {
 public:
  using FrameSender = std::function<void(FrameBuf, TraceContext)>;
  // Returns true if a deployed kernel matched the RPC op-code.
  using RpcHandler = std::function<bool(RpcDelivery)>;
  // Observes payload of plain RDMA WRITEs as it flows to the DMA engine
  // (bump-in-the-wire receive kernels, e.g. HLL).
  using StreamTap = std::function<void(Qpn, const FrameBuf&, bool last)>;
  // Notified when a QP transitions to the Error state (retry exhaustion,
  // remote operational NAK, or local DMA failure). Fires synchronously from
  // inside packet/timeout processing: handlers should record the event and
  // schedule recovery (ResetQp + ConnectQp) on the simulator, not reconnect
  // inline.
  using QpErrorHandler = std::function<void(Qpn, const Status&)>;

  RoceStack(Simulator& sim, RoceConfig config, DmaEngine& dma, Ipv4Addr local_ip,
            MacAddr local_mac, const ArpTable& arp);

  RoceStack(const RoceStack&) = delete;
  RoceStack& operator=(const RoceStack&) = delete;

  // --- wiring -------------------------------------------------------------
  void SetFrameSender(FrameSender sender) { send_frame_ = std::move(sender); }
  void SetRpcHandler(RpcHandler handler) { rpc_handler_ = std::move(handler); }
  void SetStreamTap(StreamTap tap) { stream_tap_ = std::move(tap); }
  void SetQpErrorHandler(QpErrorHandler handler) { qp_error_handler_ = std::move(handler); }
  // Entry point for frames arriving from the Ethernet interface.
  void OnFrame(FrameBuf frame, TraceContext trace = {});

  // Registers TX/RX/message tracks, RoceCounters gauges and per-verb latency
  // histograms under `process` (e.g. "node0").
  void AttachTelemetry(Telemetry* telemetry, const std::string& process);

  // Taps the stack's NIC boundary into `writer`: interface "<process>.nic.tx"
  // records every frame as encoded (pre-wire), "<process>.nic.rx" every frame
  // as it arrives from the Ethernet interface (post-wire, before parsing).
  // Diffing the two against the link capture separates stack bugs from wire
  // faults. Must be called before traffic.
  void AttachCapture(PcapWriter* writer, const std::string& process);

  // Registers queue-depth and occupancy probes with the telemetry sampler.
  void AttachSampler(Telemetry* telemetry, const std::string& process);

  // Per-flow stats hooks (RTT, goodput, retransmits, DCQCN timeline);
  // `host_index` labels this stack's flows in the export. Null detaches.
  void AttachFlowStats(FlowStats* stats, int host_index);

  // Flight-recorder hooks: protocol events (TX/RX/NAK/CNP/QP transitions)
  // plus the last-N frames at the NIC boundary. Null detaches.
  void AttachFlightRecorder(FlightRecorder* recorder, int host_index);

  // Inline protocol audits: responder ePSN must only advance forward, the
  // requester's cumulative ACK must never retire more than is outstanding.
  // Null detaches.
  void AttachAuditor(Auditor* auditor);

  // --- control path (Controller) ------------------------------------------
  // Out-of-band QP setup, equivalent to the driver exchanging QP numbers and
  // initial PSNs over a side channel.
  Status ConnectQp(Qpn local_qpn, Qpn remote_qpn, Ipv4Addr remote_ip, Psn local_psn,
                   Psn remote_psn);
  bool QpConnected(Qpn qpn) const;

  // Tears a QP down: flushes every queued work request as an errored
  // completion and returns the state-table entry to its reset state so
  // ConnectQp can re-establish the pair with fresh PSNs. The reset/reconnect
  // path after a QP error (leave in-flight wire traffic time to drain before
  // reconnecting, or stale PSNs may collide with the new epoch).
  Status ResetQp(Qpn qpn);

  // Forces `qpn` into the Error state: cancels its timer, flushes queued and
  // outstanding work requests as errored completions, and fires the
  // QpErrorHandler. Idempotent. Also invoked internally on retry exhaustion,
  // remote operational NAKs, and local DMA failures.
  void ErrorQp(Qpn qpn, const Status& status);

  // Posts a request to the Request Handler. Fails fast on invalid QPs.
  Status PostRequest(WorkRequest wr);

  // Crash-stop of the whole NIC-side protocol engine: every connected QP is
  // flushed (each posted work request reaches exactly one terminal state,
  // errored) and then wiped; all TX/retransmit/control state is dropped; all
  // timers the stack owns — per-QP retransmission, DCQCN pacing, 802.3x
  // pause resume — are mass-cancelled, with the armed-at-crash census in
  // RoceCounters::timers_cancelled_at_crash. Each wiped QP leaves a
  // tombstone: after restart, packets addressed to a pre-crash QPN are
  // answered with NAK(stale epoch) carrying the new memory-region epoch, so
  // a requester that never saw the crash is fenced instead of silently
  // touching re-registered memory. ConnectQp clears the tombstone.
  void Crash();

  // Memory-region epoch: bumped on every Crash(). Stale-epoch NAKs carry it
  // in the AETH MSN field.
  uint64_t mr_epoch() const { return mr_epoch_; }

  // 802.3x link-level flow control: pauses the TX engine for `quanta` x 512
  // bit-times at the data path's line rate (quanta 0 resumes immediately).
  // Invoked by the node when a PAUSE frame arrives from the fabric switch.
  void Pause(uint16_t quanta);

  // --- introspection -------------------------------------------------------
  const RoceConfig& config() const { return config_; }
  const RoceCounters& counters() const { return counters_; }
  Ipv4Addr local_ip() const { return local_ip_; }
  const StateTable& state_table() const { return state_table_; }
  const MultiQueue& multi_queue() const { return multi_queue_; }
  uint64_t timer_expirations() const { return timer_.expirations(); }
  const RetransTimer& retrans_timer() const { return timer_; }

 private:
  // A message being packetized / awaiting acknowledgment.
  struct PendingWr {
    WorkRequest req;
    Psn first_psn = 0;
    uint32_t psn_span = 0;   // PSNs consumed (response packet count for reads)
    uint32_t send_pkts = 0;  // wire packets this WR emits (1 for read requests)
    Psn last_psn = 0;
    bool is_read_response = false;  // responder role: PSNs preassigned, no ACK
    uint32_t next_fetch = 0;  // next packet index whose payload fetch is issued
    uint32_t next_send = 0;   // next packet index to transmit (in order)
    std::map<uint32_t, FrameBuf> ready;  // fetched chunks keyed by index
    bool completed = false;
    SimTime posted_at = 0;  // when PostRequest accepted the message

    uint32_t ChunkLen(uint32_t idx, uint32_t pmtu) const;
  };
  using WrPtr = std::shared_ptr<PendingWr>;

  // Descriptor of one unacknowledged request packet (requester role).
  struct OutstandingPacket {
    Psn psn = 0;
    IbOpcode opcode = IbOpcode::kWriteOnly;
    VirtAddr remote_addr = 0;
    uint32_t offset = 0;
    uint32_t len = 0;
    WrPtr wr;
  };

  struct QpState {
    bool connected = false;
    Qpn remote_qpn = 0;
    Ipv4Addr remote_ip = 0;
    std::deque<OutstandingPacket> outstanding;  // PSN order
    std::deque<WrPtr> awaiting_ack;             // fully sent writes/RPCs
    // Retransmission timeouts since the last sign of responder life (any
    // ACK/NAK or read-response progress). Exceeding RoceConfig::retry_limit
    // transitions the QP to Error.
    uint32_t consecutive_retries = 0;
    // A CE-marked packet arrived on this QP and its congestion mark has not
    // been echoed back yet; the next transmitted packet (ACK or data)
    // carries the BECN bit and clears it.
    bool ce_to_echo = false;
    // DCQCN rate-limiter state (requester/sender role). `rate_bps == 0`
    // means "uninitialized": the first pacing decision snaps it to line
    // rate, so idle QPs cost nothing.
    struct Dcqcn {
      double rate_bps = 0;
      double alpha = 1.0;
      SimTime next_allowed = 0;   // pacing cursor: earliest next data emit
      SimTime last_cut = 0;
      SimTime last_increase = 0;
    } cc;
    // Stamp of the last TrySendNextDataPacket pacing scan that visited this
    // QP: later WRs of an already-scanned QP are skipped without building a
    // per-call set (the decision order is unchanged, only the lookup is).
    uint64_t pacing_scan_epoch = 0;
  };

  // --- TX path -------------------------------------------------------------
  void PumpTx();
  void FetchPayloads();
  bool TrySendNextDataPacket();
  void SendControlPacket(RocePacket pkt);
  void EmitFrame(const RocePacket& pkt);
  IbOpcode DataOpcode(const PendingWr& wr, uint32_t idx) const;
  void StartWr(const WrPtr& wr);
  void FinishSending(const WrPtr& wr);
  void CompleteWr(const WrPtr& wr, const Status& status);
  void FailPayloadFetch(const WrPtr& wr, const Status& status);

  // --- RX path -------------------------------------------------------------
  void ProcessPacket(RocePacket pkt);
  void HandleResponderPacket(const RocePacket& pkt);
  void HandleAck(const RocePacket& pkt);
  void HandleReadResponse(const RocePacket& pkt);
  void HandleWritePayload(const RocePacket& pkt);
  void HandleReadRequest(const RocePacket& pkt);
  void HandleRpc(const RocePacket& pkt);
  void SendAck(Qpn local_qpn, Psn psn, AckSyndrome syndrome, TraceContext trace = {});

  // --- congestion control ---------------------------------------------------
  // CNP reaction (DCQCN): update alpha, apply a (held-off) multiplicative
  // rate cut.
  void OnCnp(Qpn qpn);
  // Lazy additive recovery: advances the QP's rate toward line rate for
  // every elapsed increase period since the last CNP cut.
  void MaybeRecoverRate(Qpn qpn, QpState::Dcqcn& cc);
  // Charges one emitted data packet against the QP's pacing budget.
  void ChargePacing(QpState& qp, size_t wire_bytes);

  // --- reliability ----------------------------------------------------------
  void RetransmitFrom(Qpn qpn, Psn psn);
  void OnTimeout(Qpn qpn);
  void AdvanceCumulativeAck(Qpn qpn, Psn acked_psn);
  // Auditor hook: responder ePSN must strictly advance when an expected
  // packet is consumed (no-op when no auditor is attached).
  void AuditEpsnAdvance(Qpn qpn, Psn prev_epsn, Psn new_epsn);
  // Completes every queued/outstanding work request of `qpn` with `status`
  // and clears its TX/retransmit/multi-queue state. Shared by ErrorQp and
  // ResetQp.
  void FlushQp(Qpn qpn, const Status& status);

  QpState& Qp(Qpn qpn);

  Simulator& sim_;
  RoceConfig config_;
  DmaEngine& dma_;
  Ipv4Addr local_ip_;
  MacAddr local_mac_;
  const ArpTable& arp_;
  FrameSender send_frame_;
  RpcHandler rpc_handler_;
  StreamTap stream_tap_;
  QpErrorHandler qp_error_handler_;

  StateTable state_table_;
  MsnTable msn_table_;
  MultiQueue multi_queue_;
  RetransTimer timer_;
  QpnMap<QpState> qps_;
  RoceCounters counters_;
  // Epoch fencing: QPs wiped by Crash(), remembered so post-restart packets
  // addressed to them draw a NAK(stale epoch) instead of a silent
  // unknown-QP drop. Erased by ConnectQp.
  struct StaleQp {
    Qpn remote_qpn = 0;
    Ipv4Addr remote_ip = 0;
  };
  std::map<Qpn, StaleQp> stale_qps_;
  uint64_t mr_epoch_ = 0;
  // Bumped by Crash(); RX-pipeline events scheduled before the crash carry
  // the epoch they were born under and die silently if it moved.
  uint32_t crash_epoch_ = 0;
  // Read completion handles, keyed by an internal token carried in the
  // multi-queue context. Kept separately from `outstanding` because a
  // cumulative ACK for a later request may retire the read *request*
  // descriptor while its response data is still streaming in.
  std::map<uint64_t, WrPtr> pending_reads_;
  uint64_t next_read_token_ = 1;

  // TX engine state.
  std::deque<WrPtr> wr_queue_;            // messages not yet fully sent
  std::deque<RocePacket> control_queue_;  // ACKs/NAKs (no payload, no PSN order)
  std::deque<OutstandingPacket> retransmit_queue_;
  std::optional<FrameBuf> retransmit_payload_;  // fetched for queue front
  bool retransmit_fetch_pending_ = false;
  // Bumped whenever the retransmit queue is rebuilt, so an in-flight payload
  // fetch for a previous queue front cannot be attached to a new packet.
  uint64_t retransmit_epoch_ = 0;
  uint32_t fetches_in_flight_ = 0;
  // Index into wr_queue_ of the first WR that may still need payload fetches;
  // everything before it is fully fetched. FetchPayloads runs on every TX
  // pump, so without this cursor it rescans the whole queue each time.
  size_t fetch_cursor_ = 0;
  bool tx_busy_ = false;
  // Set for the duration of Crash(): the flush loop fires user completion
  // callbacks, and nothing they trigger may pump frames out of (or issue
  // payload fetches for) a NIC that is mid-death.
  bool in_crash_ = false;
  // 802.3x pause gate: PumpTx emits nothing before this time.
  SimTime paused_until_ = 0;
  // Earliest DCQCN pacing wakeup currently scheduled (suppresses duplicate
  // wakeups; 0 when none is pending). The wake itself is a cancellable
  // timer: lowering the deadline physically moves the one pending event.
  SimTime pacing_wakeup_at_ = 0;
  Simulator::TimerHandle pacing_timer_;
  // Current pacing-scan stamp; bumped at the top of every DCQCN TX scan and
  // compared against QpState::pacing_scan_epoch to dedupe per-QP work.
  uint64_t pacing_scan_epoch_ = 0;
  // Resume wake for the 802.3x pause gate; extending a pause moves it.
  Simulator::TimerHandle pause_timer_;
  // Pipelines are FIFO: a short packet must not overtake a long one whose
  // store-and-forward latency is higher. These cursors enforce ordering.
  SimTime rx_order_cursor_ = 0;
  SimTime tx_order_cursor_ = 0;

  // Telemetry (optional; null when the owning testbed has tracing off).
  Tracer* tracer_ = nullptr;
  TrackId tx_track_ = kInvalidTrack;
  TrackId rx_track_ = kInvalidTrack;
  TrackId msg_track_ = kInvalidTrack;
  Histogram* write_latency_us_ = nullptr;
  Histogram* read_latency_us_ = nullptr;
  PcapWriter* capture_ = nullptr;
  uint32_t capture_tx_if_ = 0;
  uint32_t capture_rx_if_ = 0;
  FlowStats* flow_stats_ = nullptr;
  FlightRecorder* flight_recorder_ = nullptr;
  Auditor* auditor_ = nullptr;
  int host_index_ = 0;

  const uint32_t pmtu_payload_;
};

}  // namespace strom

#endif  // SRC_ROCE_STACK_H_
