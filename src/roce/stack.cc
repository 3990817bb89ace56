#include "src/roce/stack.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/flow_stats.h"

namespace strom {

uint32_t RoceConfig::PayloadPerPacket() const {
  return static_cast<uint32_t>(RocePayloadPerPacket(ip_mtu));
}

uint32_t PendingWr::ChunkLen(uint32_t idx, uint32_t pmtu) const {
  const uint64_t len = req.length;
  if (len == 0) {
    return 0;
  }
  const uint64_t start = static_cast<uint64_t>(idx) * pmtu;
  STROM_CHECK_LT(start, len);
  return static_cast<uint32_t>(std::min<uint64_t>(pmtu, len - start));
}

RoceStack::RoceStack(Simulator& sim, RoceConfig config, DmaEngine& dma, Ipv4Addr local_ip,
                     MacAddr local_mac, const ArpTable& arp)
    : sim_(sim),
      config_(config),
      dma_(dma),
      local_ip_(local_ip),
      local_mac_(local_mac),
      arp_(arp),
      multi_queue_(config.multi_queue_total),
      timer_(sim, config.retransmission_timeout, config.retransmission_timeout_max),
      pmtu_payload_(config.PayloadPerPacket()) {
  timer_.SetExpiryHandler([this](Qpn qpn) { OnTimeout(qpn); });
}

void RoceStack::AttachTelemetry(Telemetry* telemetry, const std::string& process) {
  tracer_ = &telemetry->tracer;
  tx_track_ = tracer_->RegisterTrack(process, "nic.tx");
  rx_track_ = tracer_->RegisterTrack(process, "nic.rx");
  msg_track_ = tracer_->RegisterTrack(process, "nic.msg");

  const std::string prefix = process + ".roce.";
  auto gauge = [&](const char* name, const uint64_t& field) {
    telemetry->metrics.AddGauge(prefix + name, [&field] { return double(field); });
  };
  gauge("tx_packets", counters_.tx_packets);
  gauge("tx_bytes", counters_.tx_bytes);
  gauge("rx_packets", counters_.rx_packets);
  gauge("rx_payload_bytes", counters_.rx_payload_bytes);
  gauge("tx_acks", counters_.tx_acks);
  gauge("rx_acks", counters_.rx_acks);
  gauge("tx_naks", counters_.tx_naks);
  gauge("rx_naks", counters_.rx_naks);
  gauge("retransmitted_packets", counters_.retransmitted_packets);
  gauge("timeouts", counters_.timeouts);
  gauge("icrc_drops", counters_.icrc_drops);
  gauge("malformed_drops", counters_.malformed_drops);
  gauge("psn_out_of_order_drops", counters_.psn_out_of_order_drops);
  gauge("duplicate_psn_packets", counters_.duplicate_psn_packets);
  gauge("unknown_qp_drops", counters_.unknown_qp_drops);
  gauge("rpc_dispatched", counters_.rpc_dispatched);
  gauge("rpc_unmatched", counters_.rpc_unmatched);
  gauge("write_messages_completed", counters_.write_messages_completed);
  gauge("read_messages_completed", counters_.read_messages_completed);
  gauge("qp_errors", counters_.qp_errors);
  gauge("qp_resets", counters_.qp_resets);
  gauge("wrs_flushed", counters_.wrs_flushed);
  gauge("qp_error_drops", counters_.qp_error_drops);
  gauge("rx_operational_errors", counters_.rx_operational_errors);
  gauge("rx_ecn_ce", counters_.rx_ecn_ce);
  gauge("tx_becn", counters_.tx_becn);
  gauge("rx_cnp", counters_.rx_cnp);
  gauge("dcqcn_rate_cuts", counters_.dcqcn_rate_cuts);
  gauge("dcqcn_rate_increases", counters_.dcqcn_rate_increases);
  gauge("pacing_deferrals", counters_.pacing_deferrals);
  gauge("crashes", counters_.crashes);
  gauge("timers_cancelled_at_crash", counters_.timers_cancelled_at_crash);
  gauge("tx_stale_naks", counters_.tx_stale_naks);
  gauge("rx_stale_naks", counters_.rx_stale_naks);
  // Timer-churn counters from the cancellable-timer core: dead events that
  // the handle API physically removes instead of popping as tombstones.
  telemetry->metrics.AddGauge(prefix + "timers_armed",
                              [this] { return double(timer_.timers_armed()); });
  telemetry->metrics.AddGauge(prefix + "timers_cancelled",
                              [this] { return double(timer_.timers_cancelled()); });
  telemetry->metrics.AddGauge(
      prefix + "stale_expiries_eliminated",
      [this] { return double(timer_.stale_expiries_eliminated()); });

  const std::vector<double> bounds = {1,  2,  3,   4,   5,   7.5, 10,  15,
                                      20, 30, 50,  75,  100, 200, 500, 1000};
  write_latency_us_ = telemetry->metrics.AddHistogram(prefix + "write_latency_us", bounds);
  read_latency_us_ = telemetry->metrics.AddHistogram(prefix + "read_latency_us", bounds);
}

void RoceStack::AttachCapture(PcapWriter* writer, const std::string& process) {
  capture_ = writer;
  capture_tx_if_ = writer->AddInterface(process + ".nic.tx");
  capture_rx_if_ = writer->AddInterface(process + ".nic.rx");
}

void RoceStack::AttachSampler(Telemetry* telemetry, const std::string& process) {
  const std::string prefix = process + ".roce.";
  TimeSeriesSampler& s = telemetry->sampler;
  s.AddProbe(prefix + "wr_queue_depth", [this](SimTime) { return double(unsent_wrs_); });
  s.AddProbe(prefix + "control_queue_depth",
             [this](SimTime) { return double(control_queue_.size()); });
  s.AddProbe(prefix + "retransmit_queue_depth",
             [this](SimTime) { return double(retransmit_queue_.size()); });
  s.AddProbe(prefix + "outstanding_packets", [this](SimTime) {
    size_t n = 0;
    qps_.ForEach([&n](Qpn, const QpState& qp) { n += qp.outstanding.size(); });
    return double(n);
  });
  // Every outstanding READ holds one Multi-Queue element.
  const auto reads = [this](SimTime) {
    return double(multi_queue_.total_elements() - multi_queue_.free_elements());
  };
  s.AddProbe(prefix + "outstanding_reads", reads);
  s.AddProbe(prefix + "multi_queue_occupancy", reads);
}

void RoceStack::AttachFlowStats(FlowStats* stats, int host_index) {
  flow_stats_ = stats;
  host_index_ = host_index;
}

void RoceStack::AttachFlightRecorder(FlightRecorder* recorder, int host_index) {
  flight_recorder_ = recorder;
  host_index_ = host_index;
}

void RoceStack::AttachAuditor(Auditor* auditor) { auditor_ = auditor; }

RoceStack::QpState& RoceStack::Qp(Qpn qpn) {
  STROM_CHECK_LT(qpn, config_.max_qps);
  return qps_[qpn];
}

Status RoceStack::ConnectQp(Qpn local_qpn, Qpn remote_qpn, Ipv4Addr remote_ip, Psn local_psn,
                            Psn remote_psn) {
  if (local_qpn >= config_.max_qps) {
    return OutOfRangeError("QPN beyond configured max_qps");
  }
  QpState& qp = qps_[local_qpn];
  if (qp.connected) {
    return AlreadyExistsError("QP already active");
  }
  qp.connected = true;
  // Re-establishing the QP ends its fencing window: the peer has seen the
  // new epoch out of band.
  qp.stale = false;
  qp.remote_qpn = remote_qpn;
  qp.remote_ip = remote_ip;
  qp.state.epsn = remote_psn & kPsnMask;
  qp.state.next_psn = local_psn & kPsnMask;
  qp.state.oldest_unacked = qp.state.next_psn;
  return Status::Ok();
}

bool RoceStack::QpConnected(Qpn qpn) const {
  const QpState* qp = qps_.Find(qpn);
  return qp != nullptr && qp->connected;
}

// ---------------------------------------------------------------------------
// TX path: Request Handler + packetization + pacing
// ---------------------------------------------------------------------------

Status RoceStack::PostRequest(WorkRequest wr) {
  // On rejection the completion callback still fires so waiters never hang.
  auto fail = [&wr](Status st) {
    if (wr.on_complete) {
      wr.on_complete(st);
    }
    return st;
  };
  QpState* qp = qps_.Find(wr.qpn);
  if (qp == nullptr || !qp->connected) {
    return fail(FailedPreconditionError("QP not connected"));
  }
  if (qp->state.phase == QpPhase::kError) {
    return fail(FailedPreconditionError("QP in Error state (ResetQp + ConnectQp required)"));
  }
  if (!wr.inline_data.empty()) {
    wr.length = static_cast<uint32_t>(wr.inline_data.size());
  }
  if (wr.kind == WorkRequest::Kind::kRpc && wr.inline_data.size() > pmtu_payload_) {
    return fail(InvalidArgumentError("RPC parameters exceed one MTU"));
  }
  if (wr.kind == WorkRequest::Kind::kRead && wr.length == 0) {
    return fail(InvalidArgumentError("zero-length read"));
  }
  if (wr.kind == WorkRequest::Kind::kRead && multi_queue_.full()) {
    return fail(ResourceExhaustedError("multi-queue full (too many outstanding reads)"));
  }

  auto pending = std::make_shared<PendingWr>();
  pending->req = std::move(wr);
  pending->posted_at = sim_.now();

  StateTableEntry& st = qp->state;
  pending->first_psn = st.next_psn;

  switch (pending->req.kind) {
    case WorkRequest::Kind::kWrite:
    case WorkRequest::Kind::kRpcWrite:
      pending->send_pkts = config_.PacketsForLength(pending->req.length);
      pending->psn_span = pending->send_pkts;
      break;
    case WorkRequest::Kind::kRpc:
      pending->send_pkts = 1;
      pending->psn_span = 1;
      break;
    case WorkRequest::Kind::kRead: {
      pending->send_pkts = 1;
      pending->psn_span = config_.PacketsForLength(pending->req.length);
      ReadContext ctx;
      ctx.wr = pending;
      ctx.local_addr = pending->req.local_addr;
      ctx.length = pending->req.length;
      ctx.first_psn = pending->first_psn;
      multi_queue_.Push(qp->reads, std::move(ctx));
      break;
    }
  }
  pending->last_psn = PsnAdd(pending->first_psn, pending->psn_span - 1);
  st.next_psn = PsnAdd(st.next_psn, pending->psn_span);

  QueueUnsent(*qp, std::move(pending));
  PumpTx();
  return Status::Ok();
}

void RoceStack::QueueUnsent(QpState& qp, WrPtr wr) {
  wr->post_seq = next_post_seq_++;
  if (qp.unsent.empty()) {
    // The newest WR of all: its QP goes to the back of the index.
    send_heads_.push_back(SendHead{wr->post_seq, &qp});
  }
  fetch_queue_.push_back(wr);
  qp.unsent.push_back(std::move(wr));
  ++unsent_wrs_;
}

void RoceStack::PopUnsentHead(QpState& qp) {
  const uint64_t old_seq = qp.unsent.front()->post_seq;
  qp.unsent.erase(qp.unsent.begin());
  --unsent_wrs_;
  ReindexHead(qp, old_seq, qp.unsent.empty() ? nullptr : qp.unsent.front().get());
}

void RoceStack::EraseUnsent(const WrPtr& wr) {
  QpState& qp = Qp(wr->req.qpn);
  const auto it = std::find(qp.unsent.begin(), qp.unsent.end(), wr);
  if (it == qp.unsent.end()) {
    return;
  }
  if (it == qp.unsent.begin()) {
    PopUnsentHead(qp);
  } else {
    qp.unsent.erase(it);
    --unsent_wrs_;
  }
  std::erase(fetch_queue_, wr);
}

void RoceStack::ReindexHead(QpState& qp, uint64_t old_seq, const PendingWr* new_head) {
  const auto by_seq = [](const SendHead& h, uint64_t seq) { return h.post_seq < seq; };
  const auto at = std::lower_bound(send_heads_.begin(), send_heads_.end(), old_seq, by_seq);
  STROM_CHECK(at != send_heads_.end() && at->qp == &qp);
  if (new_head == nullptr) {
    send_heads_.erase(at);
    return;
  }
  // A younger head only moves back: shift the entries it passes forward.
  const auto to = std::lower_bound(at + 1, send_heads_.end(), new_head->post_seq, by_seq);
  std::move(at + 1, to, at);
  *(to - 1) = SendHead{new_head->post_seq, &qp};
}

IbOpcode RoceStack::DataOpcode(const PendingWr& wr, uint32_t idx) const {
  const bool only = wr.send_pkts == 1;
  const bool first = idx == 0;
  const bool last = idx + 1 == wr.send_pkts;
  if (wr.is_read_response) {
    if (only) {
      return IbOpcode::kReadRespOnly;
    }
    if (first) {
      return IbOpcode::kReadRespFirst;
    }
    return last ? IbOpcode::kReadRespLast : IbOpcode::kReadRespMiddle;
  }
  switch (wr.req.kind) {
    case WorkRequest::Kind::kWrite:
      if (only) {
        return IbOpcode::kWriteOnly;
      }
      if (first) {
        return IbOpcode::kWriteFirst;
      }
      return last ? IbOpcode::kWriteLast : IbOpcode::kWriteMiddle;
    case WorkRequest::Kind::kRpcWrite:
      if (only) {
        return IbOpcode::kRpcWriteOnly;
      }
      if (first) {
        return IbOpcode::kRpcWriteFirst;
      }
      return last ? IbOpcode::kRpcWriteLast : IbOpcode::kRpcWriteMiddle;
    case WorkRequest::Kind::kRpc:
      return IbOpcode::kRpcParams;
    case WorkRequest::Kind::kRead:
      return IbOpcode::kReadRequest;
  }
  return IbOpcode::kWriteOnly;
}

void RoceStack::FetchPayloads() {
  // Pipeline payload fetches across queued messages, in post order, so
  // back-to-back small messages are not serialized on PCIe read latency. A
  // WR at its kTxFetchWindow bound is skipped, not waited on: under DCQCN a
  // paced QP's long message must not hold back another QP's fetch. A WR
  // leaves the fetch queue once its last fetch is issued.
  for (auto it = fetch_queue_.begin(); it != fetch_queue_.end();) {
    const WrPtr& wr = *it;
    while (wr->CanFetch()) {
      if (fetches_in_flight_ >= kTxFetchWindow) {
        return;
      }
      const uint32_t idx = wr->next_fetch++;
      if (wr->req.kind == WorkRequest::Kind::kRead) {
        wr->PutChunk(idx, FrameBuf{});  // read requests carry no payload
        continue;
      }
      const uint32_t chunk = wr->ChunkLen(idx, pmtu_payload_);
      if (!wr->req.inline_data.empty() || chunk == 0) {
        const uint8_t* base = wr->req.inline_data.data() + static_cast<size_t>(idx) * pmtu_payload_;
        wr->PutChunk(idx, FrameBuf::Copy(ByteSpan(base, chunk)));
        continue;
      }
      ++fetches_in_flight_;
      const VirtAddr src = wr->req.local_addr + static_cast<VirtAddr>(idx) * pmtu_payload_;
      dma_.Read(src, chunk, [this, wr, idx](Result<FrameBuf> data) {
        --fetches_in_flight_;
        if (!data.ok()) {
          STROM_LOG(kError) << "TX payload fetch failed: " << data.status();
          FailPayloadFetch(wr, data.status());
        } else {
          wr->PutChunk(idx, std::move(*data));
        }
        PumpTx();
      }, wr->req.trace);
    }
    it = wr->next_fetch == wr->send_pkts ? fetch_queue_.erase(it) : it + 1;
  }
}

bool RoceStack::TrySendNextDataPacket() {
  // Retransmissions take precedence over new data.
  if (!retransmit_queue_.empty()) {
    OutstandingPacket& desc = retransmit_queue_.front();
    FrameBuf payload;
    if (desc.opcode == IbOpcode::kReadRequest || desc.len == 0) {
      // no payload
    } else if (!desc.wr->req.inline_data.empty()) {
      const uint8_t* base = desc.wr->req.inline_data.data() + desc.offset;
      payload = FrameBuf::Copy(ByteSpan(base, desc.len));
    } else if (retransmit_payload_.has_value()) {
      payload = std::move(*retransmit_payload_);
      retransmit_payload_.reset();
    } else {
      if (!retransmit_fetch_pending_) {
        retransmit_fetch_pending_ = true;
        const uint64_t epoch = retransmit_epoch_;
        dma_.Read(desc.wr->req.local_addr + desc.offset, desc.len,
                  [this, epoch](Result<FrameBuf> data) {
                    retransmit_fetch_pending_ = false;
                    if (epoch == retransmit_epoch_ && data.ok()) {
                      retransmit_payload_ = std::move(*data);
                    }
                    // Stale epoch: the queue was rebuilt; PumpTx re-fetches
                    // for whatever is at the front now.
                    PumpTx();
                  }, desc.wr->req.trace);
      }
      return false;
    }

    QpState& qp = Qp(desc.wr->req.qpn);
    RocePacket pkt;
    pkt.src_ip = local_ip_;
    pkt.dst_ip = qp.remote_ip;
    pkt.bth.opcode = desc.opcode;
    pkt.bth.dest_qp = qp.remote_qpn;
    pkt.bth.psn = desc.psn;
    pkt.bth.ack_request = true;  // force a fresh cumulative ACK
    if (OpcodeHasReth(desc.opcode)) {
      RethHeader reth;
      reth.virt_addr = desc.remote_addr;
      reth.dma_length = desc.wr->req.length;
      pkt.reth = reth;
    }
    pkt.ecn_capable = config_.ecn_capable;
    pkt.payload = std::move(payload);
    pkt.trace = desc.wr->req.trace;
    ++counters_.retransmitted_packets;
    retransmit_queue_.pop_front();
    EmitFrame(pkt);
    return true;
  }

  if (send_heads_.empty()) {
    return false;
  }
  WrPtr wr;
  QpState* picked = nullptr;  // wr's QP
  if (!config_.dcqcn.enable) {
    // Legacy path: strict FIFO, the oldest unsent WR blocks the queue until
    // its next chunk is fetched. Byte-identical to the uncontrolled stack.
    picked = send_heads_.front().qp;
    wr = picked->unsent.front();
    if (!wr->ChunkReady(wr->next_send)) {
      return false;  // waiting for the payload fetch
    }
  } else {
    // DCQCN pacing: pick the first pacing-eligible, fetch-ready QP head in
    // post order (per-QP PSN order preserved; rate-limited QPs no longer
    // head-of-line-block other QPs).
    SimTime earliest = 0;
    bool deferred = false;
    for (const SendHead& head : send_heads_) {
      QpState& cand_qp = *head.qp;
      const WrPtr& cand = cand_qp.unsent.front();
      if (!cand->ChunkReady(cand->next_send)) {
        continue;  // fetch pending; let other QPs proceed
      }
      MaybeRecoverRate(cand->req.qpn, cand_qp.cc);
      if (cand_qp.cc.next_allowed > sim_.now()) {
        deferred = true;
        if (earliest == 0 || cand_qp.cc.next_allowed < earliest) {
          earliest = cand_qp.cc.next_allowed;
        }
        continue;
      }
      wr = cand;
      picked = &cand_qp;
      break;
    }
    if (wr == nullptr) {
      if (deferred) {
        // Everything sendable is rate-limited: wake the pump when the
        // earliest pacing cursor expires (deduplicated across calls).
        ++counters_.pacing_deferrals;
        if (pacing_wakeup_at_ <= sim_.now() || earliest < pacing_wakeup_at_) {
          pacing_wakeup_at_ = earliest;
          if (pacing_timer_.valid()) {
            // Physically move the pending wake instead of stacking a second
            // event: the superseded later wake would only have re-entered
            // this pump and found the cursor already serviced.
            sim_.RescheduleAt(pacing_timer_, earliest);
          } else {
            pacing_timer_ = sim_.ScheduleCancellableAt(earliest, [this] { PumpTx(); });
          }
        }
      }
      return false;
    }
  }
  const uint32_t idx = wr->next_send++;
  FrameBuf payload = wr->TakeChunk(idx);

  QpState& qp = *picked;
  const IbOpcode opcode = DataOpcode(*wr, idx);
  const bool last = idx + 1 == wr->send_pkts;

  RocePacket pkt;
  pkt.src_ip = local_ip_;
  pkt.dst_ip = qp.remote_ip;
  pkt.ecn_capable = config_.ecn_capable;
  pkt.bth.opcode = opcode;
  pkt.bth.dest_qp = qp.remote_qpn;
  pkt.trace = wr->req.trace;
  pkt.bth.ack_request =
      !wr->is_read_response &&
      (last || (idx + 1) % config_.ack_request_interval == 0);
  if (qp.ce_to_echo) {
    pkt.bth.becn = true;
    qp.ce_to_echo = false;
    ++counters_.tx_becn;
    if (flow_stats_ != nullptr) {
      flow_stats_->OnBecnTx(sim_.now(), host_index_, wr->req.qpn);
    }
  }

  if (wr->is_read_response) {
    pkt.bth.psn = PsnAdd(wr->first_psn, idx);
    if (OpcodeHasAeth(opcode)) {
      AethHeader aeth;
      aeth.syndrome = AckSyndrome::kAck;
      aeth.msn = qp.msn.msn;
      pkt.aeth = aeth;
    }
  } else {
    pkt.bth.psn =
        wr->req.kind == WorkRequest::Kind::kRead ? wr->first_psn : PsnAdd(wr->first_psn, idx);
    if (OpcodeHasReth(opcode)) {
      RethHeader reth;
      reth.virt_addr = wr->req.remote_addr;
      reth.dma_length = wr->req.length;
      pkt.reth = reth;
    }
    // Track for go-back-N retransmission.
    OutstandingPacket desc;
    desc.psn = pkt.bth.psn;
    desc.opcode = opcode;
    desc.remote_addr = wr->req.remote_addr;
    desc.offset = idx * pmtu_payload_;
    desc.len = static_cast<uint32_t>(payload.size());
    desc.wr = wr;
    const bool was_empty = qp.outstanding.empty();
    qp.outstanding.push_back(std::move(desc));
    if (was_empty) {
      timer_.Arm(wr->req.qpn, qp.timer);
    }
  }

  counters_.tx_bytes += payload.size();
  pkt.payload = std::move(payload);
  if (config_.dcqcn.enable) {
    ChargePacing(qp, pkt.WireSize() + kEthPhyOverhead);
  }
  EmitFrame(pkt);

  if (last) {
    FinishSending(qp, wr);
  }
  return true;
}

void RoceStack::FinishSending(QpState& qp, const WrPtr& wr) {
  // Both picks send only QP heads, so the finished WR is its QP's head.
  STROM_CHECK(qp.unsent.front() == wr);
  PopUnsentHead(qp);
  if (wr->is_read_response || wr->req.kind == WorkRequest::Kind::kRead) {
    return;  // responses need no ACK; reads complete via response data
  }
  qp.awaiting_ack.push_back(wr);
}

void RoceStack::FailPayloadFetch(const WrPtr& wr, const Status& status) {
  if (wr->is_read_response) {
    // Responder role: the response data cannot be produced. Drop the
    // response and tell the requester the operation failed fatally — no
    // retransmission can repair a failed host read.
    EraseUnsent(wr);
    SendAck(wr->req.qpn, Qp(wr->req.qpn), wr->first_psn,
            AckSyndrome::kNakRemoteOperationalError, wr->req.trace);
    return;
  }
  // Requester role: the whole QP goes to Error (the flush completes `wr`,
  // which is still in its QP's send list, with `status`).
  ErrorQp(wr->req.qpn, status);
}

void RoceStack::CompleteWr(const WrPtr& wr, const Status& status) {
  if (wr->completed) {
    return;
  }
  wr->completed = true;
  const bool is_read = wr->req.kind == WorkRequest::Kind::kRead;
  if (is_read) {
    ++counters_.read_messages_completed;
  } else if (!wr->is_read_response) {
    ++counters_.write_messages_completed;
  }
  if (!wr->is_read_response) {
    Histogram* hist = is_read ? read_latency_us_ : write_latency_us_;
    if (hist != nullptr && status.ok()) {
      hist->Observe(double(sim_.now() - wr->posted_at) / 1e6);
    }
    if (flow_stats_ != nullptr && status.ok()) {
      flow_stats_->OnCompletion(sim_.now(), host_index_, wr->req.qpn, wr->req.length,
                                double(sim_.now() - wr->posted_at) / 1e6);
    }
    if (wr->req.trace.sampled() && tracer_ != nullptr) {
      const char* name = "WRITE";
      switch (wr->req.kind) {
        case WorkRequest::Kind::kWrite:    name = "WRITE"; break;
        case WorkRequest::Kind::kRead:     name = "READ"; break;
        case WorkRequest::Kind::kRpc:      name = "RPC"; break;
        case WorkRequest::Kind::kRpcWrite: name = "RPC_WRITE"; break;
      }
      tracer_->Span(wr->req.trace, msg_track_, name, wr->posted_at, sim_.now());
    }
  }
  if (wr->req.on_complete) {
    wr->req.on_complete(status);
  }
}

void RoceStack::SendControlPacket(RocePacket pkt) {
  control_queue_.push_back(std::move(pkt));
  PumpTx();
}

void RoceStack::EmitFrame(const RocePacket& pkt) {
  MacAddr dst_mac;
  STROM_CHECK(arp_.Lookup(pkt.dst_ip, &dst_mac))
      << "no ARP entry for " << IpToString(pkt.dst_ip);
  FrameBuf frame = EncodeRoceFrame(local_mac_, dst_mac, pkt);
  if (capture_ != nullptr) {
    capture_->WritePacket(capture_tx_if_, sim_.now(), frame,
                          pkt.trace.sampled() ? "trace_id=" + std::to_string(pkt.trace.id)
                                              : std::string());
  }
  ++counters_.tx_packets;
  if (pkt.bth.opcode == IbOpcode::kAck) {
    ++counters_.tx_acks;
    if (pkt.aeth.has_value() && pkt.aeth->syndrome != AckSyndrome::kAck) {
      ++counters_.tx_naks;
    }
  }
  if (flight_recorder_ != nullptr) {
    const SimTime now = sim_.now();
    flight_recorder_->Record(now, host_index_, FlightRecordType::kTx,
                             uint8_t(pkt.bth.opcode), pkt.bth.dest_qp, pkt.bth.psn,
                             uint32_t(frame.size()));
    if (pkt.bth.opcode == IbOpcode::kAck && pkt.aeth.has_value() &&
        pkt.aeth->syndrome != AckSyndrome::kAck) {
      flight_recorder_->Record(now, host_index_, FlightRecordType::kNak,
                               uint8_t(pkt.aeth->syndrome), pkt.bth.dest_qp, pkt.bth.psn,
                               0);
    }
    flight_recorder_->RecordFrame(now, host_index_, /*tx=*/true, frame);
  }

  // Fixed TX pipeline latency plus the store-and-forward ICRC pass (one cycle
  // per data word, paper §7). The order cursor keeps the pipeline FIFO.
  const SimTime words = static_cast<SimTime>(pkt.Words(config_.data_width));
  const SimTime latency = (config_.tx_pipeline_cycles + words) * config_.clock_ps;
  tx_order_cursor_ = std::max(tx_order_cursor_, sim_.now() + latency);
  if (pkt.trace.sampled() && tracer_ != nullptr) {
    tracer_->Span(pkt.trace, tx_track_, std::string("tx:") + IbOpcodeName(pkt.bth.opcode),
                  sim_.now(), tx_order_cursor_);
  }
  sim_.ScheduleAt(tx_order_cursor_,
                  [this, epoch = crash_epoch_, f = std::move(frame),
                   trace = pkt.trace]() mutable {
                    // Frames still inside the TX pipeline when the stack
                    // crashed never reach the wire — even if the restart
                    // beat this event to the clock.
                    if (epoch != crash_epoch_) {
                      return;
                    }
                    if (send_frame_) {
                      send_frame_(std::move(f), trace);
                    }
                  });

  // The word-serial pipeline (II=1) accepts the next packet after `words`
  // cycles: this *is* line rate for the configured width.
  tx_busy_ = true;
  sim_.Schedule(words * config_.clock_ps, [this] {
    tx_busy_ = false;
    PumpTx();
  });
}

void RoceStack::PumpTx() {
  if (in_crash_) {
    return;
  }
  FetchPayloads();
  if (tx_busy_) {
    return;
  }
  if (!control_queue_.empty()) {
    RocePacket pkt = std::move(control_queue_.front());
    control_queue_.pop_front();
    EmitFrame(pkt);
    return;
  }
  TrySendNextDataPacket();
}

// ---------------------------------------------------------------------------
// RX path
// ---------------------------------------------------------------------------

void RoceStack::OnFrame(FrameBuf frame, TraceContext trace) {
  Result<RocePacket> parsed = ParseRoceFrame(frame);
  if (capture_ != nullptr) {
    std::string comment;
    if (!parsed.ok()) {
      comment = parsed.status().code() == StatusCode::kDataLoss ? "rx_drop=icrc"
                                                                : "rx_drop=malformed";
    }
    if (trace.sampled()) {
      if (!comment.empty()) {
        comment += ' ';
      }
      comment += "trace_id=" + std::to_string(trace.id);
    }
    capture_->WritePacket(capture_rx_if_, sim_.now(), frame, comment);
  }
  if (!parsed.ok()) {
    if (parsed.status().code() == StatusCode::kDataLoss) {
      ++counters_.icrc_drops;
    } else {
      ++counters_.malformed_drops;
    }
    return;
  }
  ++counters_.rx_packets;
  if (flight_recorder_ != nullptr) {
    const SimTime now = sim_.now();
    flight_recorder_->Record(now, host_index_, FlightRecordType::kRx,
                             uint8_t(parsed->bth.opcode), parsed->bth.dest_qp,
                             parsed->bth.psn, uint32_t(frame.size()));
    flight_recorder_->RecordFrame(now, host_index_, /*tx=*/false, frame);
  }
  parsed->trace = trace;
  // RX pipeline: parse stages + State Table FSM + store-and-forward ICRC.
  // The order cursor keeps the pipeline FIFO across packet sizes.
  const SimTime words = static_cast<SimTime>(parsed->Words(config_.data_width));
  const SimTime latency = (config_.rx_pipeline_cycles + words) * config_.clock_ps;
  rx_order_cursor_ = std::max(rx_order_cursor_, sim_.now() + latency);
  if (trace.sampled() && tracer_ != nullptr) {
    tracer_->Span(trace, rx_track_, std::string("rx:") + IbOpcodeName(parsed->bth.opcode),
                  sim_.now(), rx_order_cursor_);
  }
  sim_.ScheduleAt(rx_order_cursor_,
                  [this, epoch = crash_epoch_, pkt = std::move(*parsed)]() mutable {
                    // Packets inside the RX pipeline when the stack crashed
                    // die with it.
                    if (epoch != crash_epoch_) {
                      return;
                    }
                    ProcessPacket(std::move(pkt));
                  });
}

void RoceStack::ProcessPacket(RocePacket pkt) {
  const Qpn qpn = pkt.bth.dest_qp;
  QpState* found = qps_.Find(qpn);
  if (found == nullptr || !found->connected) {
    // Epoch fence: the QP existed before this stack crashed. The peer that
    // sent this never saw the crash — answer requests with a semantic NAK
    // carrying the new memory-region epoch instead of letting them silently
    // miss (or, worse, hit re-registered memory). ACK-class packets (incl.
    // stale-epoch NAKs from a peer that also crashed) are never answered:
    // fencing an ACK buys nothing and two restarted peers must not NAK each
    // other forever.
    if (found != nullptr && found->stale && pkt.bth.opcode != IbOpcode::kAck) {
      ++counters_.tx_stale_naks;
      RocePacket nak;
      nak.src_ip = local_ip_;
      nak.dst_ip = found->remote_ip;
      nak.bth.opcode = IbOpcode::kAck;
      nak.bth.dest_qp = found->remote_qpn;
      nak.bth.psn = pkt.bth.psn;
      AethHeader aeth;
      aeth.syndrome = AckSyndrome::kNakStaleEpoch;
      aeth.msn = uint32_t(mr_epoch_) & 0xFFFFFF;
      nak.aeth = aeth;
      nak.trace = pkt.trace;
      SendControlPacket(std::move(nak));
      return;
    }
    ++counters_.unknown_qp_drops;
    return;
  }
  QpState& qp = *found;
  if (qp.state.phase == QpPhase::kError) {
    // An errored QP neither responds nor accepts: everything is dropped
    // until ResetQp + ConnectQp re-establish it.
    ++counters_.qp_error_drops;
    return;
  }
  // Congestion signaling happens before opcode dispatch so both directions
  // participate: a CE mark on *any* packet (request or response stream) is
  // echoed in the BECN bit of this QP's next transmission, and a BECN on any
  // packet is this stack's CNP.
  if (pkt.ecn_ce) {
    ++counters_.rx_ecn_ce;
    qp.ce_to_echo = true;
    if (flow_stats_ != nullptr) {
      flow_stats_->OnCe(sim_.now(), host_index_, qpn);
    }
  }
  if (pkt.bth.becn) {
    ++counters_.rx_cnp;
    OnCnp(qpn, qp);
    const QpState::Dcqcn& cc = qp.cc;
    if (flight_recorder_ != nullptr) {
      flight_recorder_->Record(sim_.now(), host_index_, FlightRecordType::kCnp,
                               uint8_t(pkt.bth.opcode), qpn, pkt.bth.psn,
                               uint32_t(uint64_t(cc.rate_bps) >> 20));
    }
    if (flow_stats_ != nullptr) {
      flow_stats_->OnCnp(sim_.now(), host_index_, qpn, cc.rate_bps, cc.alpha);
    }
  }
  switch (pkt.bth.opcode) {
    case IbOpcode::kAck:
      HandleAck(pkt, qp);
      return;
    case IbOpcode::kReadRespFirst:
    case IbOpcode::kReadRespMiddle:
    case IbOpcode::kReadRespLast:
    case IbOpcode::kReadRespOnly:
      HandleReadResponse(pkt, qp);
      return;
    default:
      HandleResponderPacket(pkt, qp);
      return;
  }
}

void RoceStack::HandleResponderPacket(const RocePacket& pkt, QpState& qp) {
  const Qpn qpn = pkt.bth.dest_qp;
  StateTableEntry& st = qp.state;

  const PsnCheck check = CheckRequestPsn(st.epsn, pkt.bth.psn);
  if (check == PsnCheck::kInvalid) {
    ++counters_.psn_out_of_order_drops;
    if (st.nak_armed) {
      st.nak_armed = false;
      RocePacket nak;
      nak.src_ip = local_ip_;
      nak.dst_ip = qp.remote_ip;
      nak.bth.opcode = IbOpcode::kAck;
      nak.bth.dest_qp = qp.remote_qpn;
      nak.bth.psn = st.epsn;  // the PSN we expect: retransmit from here
      AethHeader aeth;
      aeth.syndrome = AckSyndrome::kNakSequenceError;
      aeth.msn = qp.msn.msn;
      nak.aeth = aeth;
      nak.trace = pkt.trace;
      SendControlPacket(std::move(nak));
    }
    return;
  }
  if (check == PsnCheck::kDuplicate) {
    ++counters_.duplicate_psn_packets;
    if (OpcodeIsWriteLike(pkt.bth.opcode)) {
      // Re-ACK so a requester whose ACK was lost can make progress.
      SendAck(qpn, qp, pkt.bth.psn, AckSyndrome::kAck, pkt.trace);
    } else if (pkt.bth.opcode == IbOpcode::kReadRequest) {
      HandleReadRequest(pkt, qp);  // reads are idempotent: re-execute
    }
    return;
  }

  // Expected PSN: consume it.
  st.nak_armed = true;
  const Psn prev_epsn = st.epsn;
  if (pkt.bth.opcode == IbOpcode::kReadRequest) {
    STROM_CHECK(pkt.reth.has_value());
    st.epsn = PsnAdd(st.epsn, config_.PacketsForLength(pkt.reth->dma_length));
    AuditEpsnAdvance(qpn, prev_epsn, st.epsn);
    HandleReadRequest(pkt, qp);
    return;
  }
  st.epsn = PsnAdd(st.epsn, 1);
  AuditEpsnAdvance(qpn, prev_epsn, st.epsn);

  if (OpcodeIsStrom(pkt.bth.opcode)) {
    HandleRpc(pkt, qp);
    return;
  }
  HandleWritePayload(pkt, qp);
}

void RoceStack::HandleWritePayload(const RocePacket& pkt, QpState& qp) {
  const Qpn qpn = pkt.bth.dest_qp;
  MsnTableEntry& msn = qp.msn;
  counters_.rx_payload_bytes += pkt.payload.size();

  const IbOpcode op = pkt.bth.opcode;
  if (op == IbOpcode::kWriteFirst || op == IbOpcode::kWriteOnly) {
    STROM_CHECK(pkt.reth.has_value());
    msn.dma_addr = pkt.reth->virt_addr;
  }
  const VirtAddr target = msn.dma_addr;
  msn.dma_addr += pkt.payload.size();

  const bool ends = OpcodeEndsMessage(op);
  if (!pkt.payload.empty()) {
    Status wst = dma_.Write(target, pkt.payload, nullptr, pkt.trace);
    if (!wst.ok()) {
      // The host write was rejected: nothing was placed, so ACKing would
      // falsely promise the data landed. Surface a fatal NAK instead —
      // retransmission cannot repair a failing DMA path.
      SendAck(qpn, qp, pkt.bth.psn, AckSyndrome::kNakRemoteOperationalError, pkt.trace);
      return;
    }
  }
  if (stream_tap_) {
    stream_tap_(qpn, pkt.payload, ends);
  }
  if (ends) {
    ++msn.msn;
  }
  if (ends || pkt.bth.ack_request) {
    SendAck(qpn, qp, pkt.bth.psn, AckSyndrome::kAck, pkt.trace);
  }
}

void RoceStack::HandleReadRequest(const RocePacket& pkt, QpState& qp) {
  STROM_CHECK(pkt.reth.has_value());
  // The responder streams the data back with the PSNs the requester
  // pre-calculated (paper §5.1 explains this constraint of read semantics).
  auto response = std::make_shared<PendingWr>();
  response->is_read_response = true;
  response->req.kind = WorkRequest::Kind::kWrite;  // payload-from-memory path
  response->req.qpn = pkt.bth.dest_qp;
  response->req.local_addr = pkt.reth->virt_addr;
  response->req.length = pkt.reth->dma_length;
  response->req.trace = pkt.trace;
  response->posted_at = sim_.now();
  response->first_psn = pkt.bth.psn;
  response->send_pkts = config_.PacketsForLength(pkt.reth->dma_length);
  response->psn_span = response->send_pkts;
  response->last_psn = PsnAdd(response->first_psn, response->psn_span - 1);
  QueueUnsent(qp, std::move(response));
  PumpTx();
}

void RoceStack::HandleRpc(const RocePacket& pkt, QpState& qp) {
  const Qpn qpn = pkt.bth.dest_qp;
  MsnTableEntry& msn = qp.msn;
  counters_.rx_payload_bytes += pkt.payload.size();

  RpcDelivery delivery;
  delivery.qpn = qpn;
  delivery.payload = pkt.payload;
  delivery.trace = pkt.trace;

  const IbOpcode op = pkt.bth.opcode;
  if (op == IbOpcode::kRpcParams) {
    STROM_CHECK(pkt.reth.has_value());
    delivery.rpc_opcode = static_cast<uint32_t>(pkt.reth->virt_addr);
    delivery.is_params = true;
    delivery.message_length = pkt.reth->dma_length;
  } else {
    if (op == IbOpcode::kRpcWriteFirst || op == IbOpcode::kRpcWriteOnly) {
      STROM_CHECK(pkt.reth.has_value());
      msn.rpc_opcode = static_cast<uint32_t>(pkt.reth->virt_addr);
      delivery.message_length = pkt.reth->dma_length;
    }
    delivery.rpc_opcode = msn.rpc_opcode;
    delivery.first = OpcodeStartsMessage(op);
    delivery.last = OpcodeEndsMessage(op);
  }

  const bool ends = OpcodeEndsMessage(op);
  if (ends) {
    ++msn.msn;
  }

  const bool matched = rpc_handler_ && rpc_handler_(std::move(delivery));
  if (matched) {
    ++counters_.rpc_dispatched;
    if (ends || pkt.bth.ack_request) {
      SendAck(qpn, qp, pkt.bth.psn, AckSyndrome::kAck, pkt.trace);
    }
  } else {
    // No deployed kernel matched the RPC op-code: report an error to the
    // requesting node (paper §5.1).
    ++counters_.rpc_unmatched;
    SendAck(qpn, qp, pkt.bth.psn, AckSyndrome::kNakInvalidRequest, pkt.trace);
  }
}

void RoceStack::SendAck(Qpn local_qpn, QpState& qp, Psn psn, AckSyndrome syndrome,
                        TraceContext trace) {
  RocePacket ack;
  ack.src_ip = local_ip_;
  ack.dst_ip = qp.remote_ip;
  ack.bth.opcode = IbOpcode::kAck;
  ack.bth.dest_qp = qp.remote_qpn;
  ack.bth.psn = psn;
  if (qp.ce_to_echo) {
    ack.bth.becn = true;
    qp.ce_to_echo = false;
    ++counters_.tx_becn;
    if (flow_stats_ != nullptr) {
      flow_stats_->OnBecnTx(sim_.now(), host_index_, local_qpn);
    }
  }
  ack.trace = trace;
  AethHeader aeth;
  aeth.syndrome = syndrome;
  aeth.msn = qp.msn.msn;
  ack.aeth = aeth;
  SendControlPacket(std::move(ack));
}

// ---------------------------------------------------------------------------
// Requester-side response handling
// ---------------------------------------------------------------------------

void RoceStack::AdvanceCumulativeAck(Qpn qpn, QpState& qp, Psn acked_psn) {
  StateTableEntry& st = qp.state;
  qp.consecutive_retries = 0;  // any ACK/NAK is proof of responder life

  while (!qp.outstanding.empty() &&
         PsnDistance(qp.outstanding.front().psn, acked_psn) >= 0) {
    qp.outstanding.pop_front();
  }
  const Psn prev_oldest = st.oldest_unacked;
  if (PsnDistance(st.oldest_unacked, PsnAdd(acked_psn, 1)) > 0) {
    st.oldest_unacked = PsnAdd(acked_psn, 1);
  }
  if (auditor_ != nullptr) {
    // Cumulative-ACK window may only move forward; a regression means the
    // go-back-N bookkeeping re-opened already-acknowledged PSNs.
    auditor_->NoteCheck();
    if (PsnDistance(prev_oldest, st.oldest_unacked) < 0) {
      auditor_->Violation("host" + std::to_string(host_index_) + " qp" +
                          std::to_string(qpn) + " oldest_unacked regressed: " +
                          std::to_string(prev_oldest) + " -> " +
                          std::to_string(st.oldest_unacked));
    }
  }

  // Complete fully-sent, fully-acked writes and RPCs in order.
  while (!qp.awaiting_ack.empty()) {
    const WrPtr& wr = qp.awaiting_ack.front();
    if (PsnDistance(wr->last_psn, acked_psn) < 0) {
      break;
    }
    CompleteWr(wr, Status::Ok());
    qp.awaiting_ack.pop_front();
  }

  // The timer must stay armed while reads are pending even if every request
  // descriptor has been retired: their response streams can still be lost.
  if (qp.outstanding.empty() && MultiQueue::Empty(qp.reads)) {
    timer_.Cancel(qp.timer);
  } else {
    timer_.Arm(qpn, qp.timer);  // progress: reset timeout and backoff
  }
}

void RoceStack::HandleAck(const RocePacket& pkt, QpState& qp) {
  STROM_CHECK(pkt.aeth.has_value());
  const Qpn qpn = pkt.bth.dest_qp;
  ++counters_.rx_acks;

  switch (pkt.aeth->syndrome) {
    case AckSyndrome::kAck:
      AdvanceCumulativeAck(qpn, qp, pkt.bth.psn);
      return;
    case AckSyndrome::kNakSequenceError:
      ++counters_.rx_naks;
      // The BTH PSN of the NAK is the responder's ePSN: everything before it
      // arrived; retransmit from there.
      AdvanceCumulativeAck(qpn, qp, PsnAdd(pkt.bth.psn, kPsnMask));  // psn-1
      RetransmitFrom(qpn, qp, pkt.bth.psn);
      return;
    case AckSyndrome::kNakInvalidRequest: {
      ++counters_.rx_naks;
      // Unmatched RPC op-code (or bad request): fail the message covering
      // this PSN *before* the cumulative advance would complete it as OK
      // (CompleteWr is idempotent, so the advance below is then a no-op for
      // the failed request).
      for (const WrPtr& wr : qp.awaiting_ack) {
        if (PsnDistance(wr->first_psn, pkt.bth.psn) >= 0 &&
            PsnDistance(pkt.bth.psn, wr->last_psn) >= 0) {
          CompleteWr(wr, InvalidArgumentError("remote NAK: invalid request / unmatched RPC"));
        }
      }
      AdvanceCumulativeAck(qpn, qp, pkt.bth.psn);
      return;
    }
    case AckSyndrome::kNakRemoteOperationalError:
      ++counters_.rx_naks;
      ++counters_.rx_operational_errors;
      // The responder could not execute the operation (its DMA path failed).
      // Fatal for the connection: no retransmission can repair it.
      ErrorQp(qpn, InternalError("remote NAK: responder operational error"));
      return;
    case AckSyndrome::kNakStaleEpoch:
      ++counters_.rx_naks;
      ++counters_.rx_stale_naks;
      // A NAK answering a packet of the pair's previous incarnation can
      // arrive after the reconnect; its PSN lies outside the window this
      // incarnation has sent, so it says nothing about the live pair.
      if (PsnDistance(qp.state.oldest_unacked, pkt.bth.psn) < 0 ||
          PsnDistance(pkt.bth.psn, qp.state.next_psn) <= 0) {
        return;
      }
      // The peer crashed and restarted: our QP pair and any memory
      // registrations we hold are from a dead epoch. Fence immediately —
      // retransmitting can only draw the same NAK. Liveness-driven
      // reconnection (ResetQp + ConnectQp with fresh PSNs) recovers the pair.
      ErrorQp(qpn, FailedPreconditionError("remote NAK: stale epoch (peer restarted)"));
      return;
    default:
      ++counters_.rx_naks;
      return;
  }
}

void RoceStack::HandleReadResponse(const RocePacket& pkt, QpState& qp) {
  const Qpn qpn = pkt.bth.dest_qp;
  if (MultiQueue::Empty(qp.reads)) {
    ++counters_.duplicate_psn_packets;  // stale response after completion
    return;
  }
  ReadContext& ctx = multi_queue_.Head(qp.reads);
  const int32_t idx = PsnDistance(ctx.first_psn, pkt.bth.psn);
  const uint32_t expected_idx = ctx.bytes_placed / pmtu_payload_;
  if (idx < 0 || static_cast<uint32_t>(idx) != expected_idx) {
    // Gap or duplicate within the response stream; drop and let the
    // retransmission timer re-issue the read request.
    ++counters_.psn_out_of_order_drops;
    return;
  }

  qp.consecutive_retries = 0;  // response data is forward progress
  counters_.rx_payload_bytes += pkt.payload.size();
  const VirtAddr target = ctx.local_addr + ctx.bytes_placed;
  ctx.bytes_placed += static_cast<uint32_t>(pkt.payload.size());
  const bool last = OpcodeEndsMessage(pkt.bth.opcode);
  if (!last) {
    // Response data streaming in is progress: restart the retransmission
    // timer so a long response (many packets queued behind other reads)
    // does not spuriously time out mid-stream.
    timer_.Arm(qpn, qp.timer);
  }

  // Take the read's WR for completion before popping its element.
  WrPtr read_wr;
  if (last) {
    read_wr = ctx.wr;
    const Psn first_psn = ctx.first_psn;
    STROM_CHECK_EQ(ctx.bytes_placed, ctx.length);
    multi_queue_.PopHead(qp.reads);
    // Drop the request descriptor: the read is complete.
    std::erase_if(qp.outstanding, [&](const OutstandingPacket& d) {
      return d.opcode == IbOpcode::kReadRequest && d.psn == first_psn;
    });
    // Implicit ack: response proves the request arrived.
    if (qp.outstanding.empty() && MultiQueue::Empty(qp.reads)) {
      timer_.Cancel(qp.timer);
    } else {
      timer_.Arm(qpn, qp.timer);
    }
  }

  if (!pkt.payload.empty()) {
    QpState* rec = &qp;  // records never move
    Status wst = dma_.Write(target, pkt.payload, [this, rec, read_wr](Status st) {
      if (read_wr) {
        std::erase(rec->reads_landing, read_wr);
        CompleteWr(read_wr, st);
      }
      PumpTx();  // multi-queue slot freed: retry blocked reads
    }, pkt.trace);
    if (!wst.ok()) {
      // Local DMA rejected the response data: the read cannot complete and
      // the placement stream is now broken — fatal for the QP.
      if (read_wr) {
        CompleteWr(read_wr, wst);
      }
      ErrorQp(qpn, wst);
      return;
    }
    if (read_wr) {
      // Out of `reads` but not complete until the write lands: a flush in
      // between (a crash fences the write's completion) completes it.
      qp.reads_landing.push_back(read_wr);
    }
  } else if (read_wr) {
    CompleteWr(read_wr, Status::Ok());
  }
}

// ---------------------------------------------------------------------------
// Reliability
// ---------------------------------------------------------------------------

void RoceStack::AuditEpsnAdvance(Qpn qpn, Psn prev_epsn, Psn new_epsn) {
  if (auditor_ == nullptr) {
    return;
  }
  auditor_->NoteCheck();
  if (PsnDistance(prev_epsn, new_epsn) <= 0) {
    auditor_->Violation("host" + std::to_string(host_index_) + " qp" +
                        std::to_string(qpn) + " epsn did not advance: " +
                        std::to_string(prev_epsn) + " -> " + std::to_string(new_epsn));
  }
}

void RoceStack::RetransmitFrom(Qpn qpn, QpState& qp, Psn psn) {
  retransmit_queue_.clear();
  retransmit_payload_.reset();
  ++retransmit_epoch_;
  for (const OutstandingPacket& desc : qp.outstanding) {
    if (PsnDistance(psn, desc.psn) >= 0) {
      retransmit_queue_.push_back(desc);
    }
  }
  if (flight_recorder_ != nullptr) {
    flight_recorder_->Record(sim_.now(), host_index_, FlightRecordType::kRetransmit, 0,
                             qpn, psn, uint32_t(retransmit_queue_.size()));
  }
  if (flow_stats_ != nullptr) {
    flow_stats_->OnRetransmit(sim_.now(), host_index_, qpn);
  }
  if (!retransmit_queue_.empty()) {
    timer_.RearmBackoff(qpn, qp.timer);
  }
  PumpTx();
}

void RoceStack::OnTimeout(Qpn qpn) {
  QpState& qp = Qp(qpn);
  const bool reads_pending = !MultiQueue::Empty(qp.reads);
  if (qp.outstanding.empty() && !reads_pending) {
    return;
  }
  ++counters_.timeouts;
  if (flight_recorder_ != nullptr) {
    flight_recorder_->Record(sim_.now(), host_index_, FlightRecordType::kTimeout, 0,
                             qpn, qp.state.oldest_unacked,
                             uint32_t(qp.consecutive_retries + 1));
  }
  if (flow_stats_ != nullptr) {
    flow_stats_->OnTimeout(sim_.now(), host_index_, qpn);
  }
  if (++qp.consecutive_retries > config_.retry_limit) {
    ErrorQp(qpn, UnavailableError("retry budget exhausted (" +
                                  std::to_string(config_.retry_limit) +
                                  " consecutive timeouts)"));
    return;
  }
  // For reads that timed out mid-response, rewind placement progress: the
  // responder will re-send the whole response.
  if (reads_pending) {
    multi_queue_.Head(qp.reads).bytes_placed = 0;
  }

  if (qp.outstanding.empty()) {
    // The head read's request descriptor was retired by a later cumulative
    // ACK, but its response stream was lost: re-issue the read request.
    const ReadContext& ctx = multi_queue_.Head(qp.reads);
    OutstandingPacket desc;
    desc.psn = ctx.first_psn;
    desc.opcode = IbOpcode::kReadRequest;
    desc.remote_addr = ctx.wr->req.remote_addr;
    desc.len = ctx.length;
    desc.wr = ctx.wr;
    retransmit_queue_.clear();
    retransmit_payload_.reset();
    ++retransmit_epoch_;
    retransmit_queue_.push_back(std::move(desc));
    timer_.RearmBackoff(qpn, qp.timer);
    PumpTx();
    return;
  }
  RetransmitFrom(qpn, qp, qp.state.oldest_unacked);
}

// ---------------------------------------------------------------------------
// Error state machine
// ---------------------------------------------------------------------------

void RoceStack::FlushQp(Qpn qpn, QpState& qp, const Status& status) {
  // The caller has put the QP in Error: a completion fired below that posts
  // on this QP is rejected (its one completion), never queued.
  STROM_CHECK(qp.state.phase == QpPhase::kError);
  timer_.Cancel(qp.timer);

  // TX engine: any retransmit state or queued message belonging to this QP
  // must not reach the wire.
  retransmit_payload_.reset();
  ++retransmit_epoch_;  // orphan in-flight retransmit payload fetches
  std::erase_if(retransmit_queue_,
                [&](const OutstandingPacket& d) { return d.wr->req.qpn == qpn; });
  // Unsent WRs, in post order. They all leave the TX engine before any
  // completion fires: a completion may post on another QP and pump, and the
  // pump must not fetch or send for this one.
  const std::vector<WrPtr> unsent = std::move(qp.unsent);
  qp.unsent.clear();
  if (!unsent.empty()) {
    ReindexHead(qp, unsent.front()->post_seq, nullptr);
    std::erase_if(fetch_queue_, [qpn](const WrPtr& w) { return w->req.qpn == qpn; });
    unsent_wrs_ -= unsent.size();
  }
  for (const WrPtr& wr : unsent) {
    if (!wr->is_read_response && !wr->completed) {
      ++counters_.wrs_flushed;
      CompleteWr(wr, status);
    }
  }

  qp.outstanding.clear();
  for (const WrPtr& wr : qp.awaiting_ack) {
    if (!wr->completed) {
      ++counters_.wrs_flushed;
      CompleteWr(wr, status);
    }
  }
  qp.awaiting_ack.clear();
  for (const WrPtr& wr : qp.reads_landing) {
    if (!wr->completed) {
      ++counters_.wrs_flushed;
      CompleteWr(wr, status);
    }
  }
  qp.reads_landing.clear();

  // Outstanding reads: drain this QP's multi-queue list and complete their
  // work requests in error.
  while (!MultiQueue::Empty(qp.reads)) {
    const WrPtr wr = multi_queue_.Head(qp.reads).wr;
    multi_queue_.PopHead(qp.reads);
    if (!wr->completed) {
      ++counters_.wrs_flushed;
      CompleteWr(wr, status);
    }
  }
  STROM_CHECK(qp.unsent.empty());
  qp.consecutive_retries = 0;
  PumpTx();  // other QPs' traffic continues
}

void RoceStack::WipeQp(QpState& qp, bool stale) {
  QpState wiped;
  // The timer entry stays as it is: a cancellable timer keeps its
  // event-queue slot for good, so a fresh entry per reconnect would leak one
  // and arm a second timer (DESIGN.md §13).
  wiped.timer = qp.timer;
  if (stale) {
    wiped.stale = true;
    wiped.remote_qpn = qp.remote_qpn;
    wiped.remote_ip = qp.remote_ip;
  }
  qp = std::move(wiped);
}

void RoceStack::ErrorQp(Qpn qpn, const Status& status) {
  QpState* qp = qps_.Find(qpn);
  if (qp == nullptr || !qp->connected || qp->state.phase == QpPhase::kError) {
    return;
  }
  qp->state.phase = QpPhase::kError;
  ++counters_.qp_errors;
  if (flight_recorder_ != nullptr) {
    flight_recorder_->Record(sim_.now(), host_index_, FlightRecordType::kQpState, 0,
                             qpn, qp->state.oldest_unacked, /*aux=*/1);
  }
  STROM_LOG(kWarning) << "QP " << qpn << " -> Error: " << status;
  FlushQp(qpn, *qp, status);
  if (qp_error_handler_) {
    qp_error_handler_(qpn, status);
  }
}

Status RoceStack::ResetQp(Qpn qpn) {
  QpState* qp = qps_.Find(qpn);
  if (qp == nullptr || !qp->connected) {
    // Idempotent: a crash already wiped this QP (its record is a
    // tombstone), or it was never connected. Either way the post-reset
    // state is what the caller wants, and the reconnect path must not fail
    // on it.
    return Status::Ok();
  }
  ++counters_.qp_resets;
  if (flight_recorder_ != nullptr) {
    flight_recorder_->Record(sim_.now(), host_index_, FlightRecordType::kQpState, 0,
                             qpn, qp->state.oldest_unacked, /*aux=*/0);
  }
  // Gate posts for the flush, as ErrorQp and Crash do; the wipe clears the
  // phase again.
  qp->state.phase = QpPhase::kError;
  FlushQp(qpn, *qp, UnavailableError("QP reset"));
  WipeQp(*qp, /*stale=*/false);
  return Status::Ok();
}

void RoceStack::Crash() {
  ++counters_.crashes;
  in_crash_ = true;
  // Census the timers armed at the crash instant, then mass-cancel: the
  // timer slab must never fire a callback into wiped QP state. The count is
  // exported as roce.timers_cancelled_at_crash.
  std::vector<Qpn> connected;
  qps_.ForEach([&connected](Qpn qpn, const QpState& qp) {
    if (qp.connected) {
      connected.push_back(qpn);
    }
  });
  // QpnMap iterates in probe-slot order; sort so the flush (and the user
  // completions it fires) runs in QPN order.
  std::sort(connected.begin(), connected.end());
  for (Qpn qpn : connected) {
    if (timer_.IsArmed(Qp(qpn).timer)) {
      ++counters_.timers_cancelled_at_crash;
    }
  }
  if (sim_.TimerPending(pacing_timer_)) {
    ++counters_.timers_cancelled_at_crash;
  }
  // Fail-fast gate before flushing: completion callbacks fired by the flush
  // may try to post follow-up work, which must be rejected with an errored
  // completion (exactly one terminal state), not queued into the corpse.
  for (Qpn qpn : connected) {
    Qp(qpn).state.phase = QpPhase::kError;
  }
  const Status crashed = UnavailableError("local crash");
  for (Qpn qpn : connected) {
    QpState& qp = Qp(qpn);
    FlushQp(qpn, qp, crashed);  // cancels the QP's retransmission timer too
    // Wipe the pair completely, leaving the tombstone for epoch fencing.
    WipeQp(qp, /*stale=*/true);
  }
  // TX engine: everything still queued dies with the NIC. FlushQp emptied
  // every connected QP's send list (read responses included), and only
  // connected QPs queue sends.
  STROM_CHECK_EQ(unsent_wrs_, 0u);
  control_queue_.clear();
  retransmit_queue_.clear();
  retransmit_payload_.reset();
  ++retransmit_epoch_;
  retransmit_fetch_pending_ = false;
  fetches_in_flight_ = 0;  // their DMA completions are crash-fenced no-ops
  sim_.Cancel(pacing_timer_);  // handles stay valid for post-restart re-arm
  pacing_wakeup_at_ = 0;
  tx_busy_ = false;
  rx_order_cursor_ = 0;
  tx_order_cursor_ = 0;
  ++crash_epoch_;  // orphan TX/RX pipeline events born before the crash
  ++mr_epoch_;     // post-restart registrations are a new epoch
  in_crash_ = false;
}

// ---------------------------------------------------------------------------
// Congestion control: DCQCN-style rate limiting
// ---------------------------------------------------------------------------

void RoceStack::OnCnp(Qpn qpn, QpState& qp) {
  if (!config_.dcqcn.enable) {
    return;  // counted, but inert without the rate machine
  }
  QpState::Dcqcn& cc = qp.cc;
  const double line = config_.LineRateBps();
  if (cc.rate_bps <= 0) {
    cc.rate_bps = line;
  }
  // Every CNP raises the congestion estimate; the multiplicative cut itself
  // is held off to once per rate_cut_interval (DCQCN's CNP timer).
  const double g = config_.dcqcn.alpha_gain;
  cc.alpha = (1.0 - g) * cc.alpha + g;
  if (cc.last_cut != 0 && sim_.now() - cc.last_cut < config_.dcqcn.rate_cut_interval) {
    return;
  }
  const double floor = line * config_.dcqcn.min_rate_fraction;
  cc.rate_bps = std::max(floor, cc.rate_bps * (1.0 - cc.alpha / 2.0));
  cc.last_cut = sim_.now();
  cc.last_increase = sim_.now();  // recovery restarts from the cut
  ++counters_.dcqcn_rate_cuts;
  if (flow_stats_ != nullptr) {
    flow_stats_->OnRateChange(sim_.now(), host_index_, qpn, /*cut=*/true, cc.rate_bps,
                              cc.alpha);
  }
}

void RoceStack::MaybeRecoverRate(Qpn qpn, QpState::Dcqcn& cc) {
  const double line = config_.LineRateBps();
  if (cc.rate_bps <= 0 || cc.rate_bps >= line) {
    return;  // uninitialized or already at line rate: nothing to recover
  }
  if (cc.last_increase == 0) {
    cc.last_increase = sim_.now();
    return;
  }
  const double g = config_.dcqcn.alpha_gain;
  bool increased = false;
  while (sim_.now() - cc.last_increase >= config_.dcqcn.increase_interval) {
    cc.last_increase += config_.dcqcn.increase_interval;
    cc.rate_bps += config_.dcqcn.additive_increase_fraction * line;
    cc.alpha *= (1.0 - g);
    ++counters_.dcqcn_rate_increases;
    increased = true;
    if (cc.rate_bps >= line) {
      cc.rate_bps = line;
      break;
    }
  }
  // One timeline event per recovery batch keeps the sampled DCQCN timeline
  // proportional to sim time rather than to the pump-scan rate.
  if (increased && flow_stats_ != nullptr) {
    flow_stats_->OnRateChange(sim_.now(), host_index_, qpn, /*cut=*/false, cc.rate_bps,
                              cc.alpha);
  }
}

void RoceStack::ChargePacing(QpState& qp, size_t wire_bytes) {
  QpState::Dcqcn& cc = qp.cc;
  const double line = config_.LineRateBps();
  if (cc.rate_bps <= 0) {
    cc.rate_bps = line;
  }
  if (cc.rate_bps >= line) {
    // At full line rate the TX serializer already enforces the spacing;
    // charging here too would double-count and halve throughput.
    cc.next_allowed = 0;
    return;
  }
  const SimTime spacing =
      static_cast<SimTime>(double(wire_bytes) * 8.0 * 1e12 / cc.rate_bps);
  cc.next_allowed = std::max(cc.next_allowed, sim_.now()) + spacing;
}

}  // namespace strom
