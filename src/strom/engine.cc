#include "src/strom/engine.h"

#include <cstring>
#include <utility>

#include "src/common/logging.h"

namespace strom {

StromEngine::StromEngine(Simulator& sim, RoceStack& stack, DmaEngine& dma)
    : sim_(sim), stack_(stack), dma_(dma) {
  stack_.SetRpcHandler([this](RpcDelivery d) { return OnRpc(std::move(d)); });
  stack_.SetStreamTap([this](Qpn qpn, const FrameBuf& payload, bool last) {
    OnWriteTap(qpn, payload, last);
  });
}

void StromEngine::AttachTelemetry(Telemetry* telemetry, const std::string& process) {
  tracer_ = &telemetry->tracer;
  track_ = tracer_->RegisterTrack(process, "kernel");
  const std::string prefix = process + ".engine.";
  auto gauge = [&](const char* name, const uint64_t& field) {
    telemetry->metrics.AddGauge(prefix + name, [&field] { return double(field); });
  };
  gauge("rpcs_dispatched", counters_.rpcs_dispatched);
  gauge("rpcs_unmatched", counters_.rpcs_unmatched);
  gauge("local_invocations", counters_.local_invocations);
  gauge("kernel_dma_reads", counters_.kernel_dma_reads);
  gauge("kernel_dma_writes", counters_.kernel_dma_writes);
  gauge("kernel_dma_errors", counters_.kernel_dma_errors);
  gauge("kernel_responses", counters_.kernel_responses);
  gauge("tapped_chunks", counters_.tapped_chunks);
}

void StromEngine::AttachSampler(Telemetry* telemetry, const std::string& process) {
  telemetry->sampler.AddProbe(process + ".engine.stream_occupancy", [this](SimTime) {
    size_t n = 0;
    for (const auto& [opcode, d] : kernels_) {
      const KernelStreams& st = d->kernel->streams();
      n += st.qpn_in.size() + st.param_in.size() + st.roce_data_in.size() +
           st.dma_cmd_out.size() + st.dma_data_out.size() + st.dma_data_in.size() +
           st.roce_meta_out.size() + st.roce_data_out.size();
      n += d->qpn_inbox.size() + d->param_inbox.size() + d->data_inbox.size() +
           d->dma_in_inbox.size();
    }
    return double(n);
  });
}

Status StromEngine::DeployKernel(std::unique_ptr<StromKernel> kernel) {
  const uint32_t opcode = kernel->rpc_opcode();
  if (kernels_.count(opcode) != 0) {
    return AlreadyExistsError("RPC op-code already deployed: " + std::to_string(opcode));
  }
  auto deployed = std::make_unique<Deployed>();
  deployed->kernel = std::move(kernel);
  Deployed* d = deployed.get();
  KernelStreams& s = d->kernel->streams();

  // Output side: engine drains kernel outputs as they appear.
  s.dma_cmd_out.on_push = [this, d] { ServiceDmaCommands(*d); };
  s.dma_data_out.on_push = [this, d] { CollectDmaWrites(*d); };
  s.roce_meta_out.on_push = [this, d] { CollectResponses(*d); };
  s.roce_data_out.on_push = [this, d] { CollectResponses(*d); };

  // Input side: when the kernel pops and frees space, flush buffered items.
  s.qpn_in.on_pop = [this, d] { FlushInboxes(*d); };
  s.param_in.on_pop = [this, d] { FlushInboxes(*d); };
  s.roce_data_in.on_pop = [this, d] { FlushInboxes(*d); };
  s.dma_data_in.on_pop = [this, d] { FlushInboxes(*d); };

  kernels_.emplace(opcode, std::move(deployed));
  return Status::Ok();
}

StromKernel* StromEngine::FindKernel(uint32_t rpc_opcode) const {
  auto it = kernels_.find(rpc_opcode);
  return it == kernels_.end() ? nullptr : it->second->kernel.get();
}

bool StromEngine::OnRpc(RpcDelivery delivery) {
  auto it = kernels_.find(delivery.rpc_opcode);
  if (it == kernels_.end()) {
    ++counters_.rpcs_unmatched;
    return false;
  }
  Deployed& d = *it->second;
  ++counters_.rpcs_dispatched;
  if (delivery.is_params || delivery.first) {
    d.active_trace = delivery.trace;
    d.rpc_started = sim_.now();
  }
  // Data chunks share the ref-counted wire frame (zero-copy ingress); only
  // the parameter bus still materializes a ByteBuffer, matching the separate
  // 32B-word param FIFO of the hardware interface.
  if (delivery.is_params) {
    DeliverParams(d, delivery.qpn, delivery.payload.ToBuffer());
  } else {
    NetChunk chunk;
    chunk.data = delivery.payload;
    chunk.last = delivery.last;
    DeliverData(d, std::move(chunk));
  }
  return true;
}

Status StromEngine::InvokeLocal(uint32_t rpc_opcode, Qpn qpn, ByteBuffer params,
                                TraceContext trace) {
  auto it = kernels_.find(rpc_opcode);
  if (it == kernels_.end()) {
    return NotFoundError("no kernel deployed for RPC op-code " + std::to_string(rpc_opcode));
  }
  ++counters_.local_invocations;
  it->second->active_trace = trace;
  it->second->rpc_started = sim_.now();
  DeliverParams(*it->second, qpn, std::move(params));
  return Status::Ok();
}

Status StromEngine::AttachReceiveTap(Qpn qpn, uint32_t rpc_opcode) {
  if (kernels_.count(rpc_opcode) == 0) {
    return NotFoundError("no kernel deployed for RPC op-code " + std::to_string(rpc_opcode));
  }
  taps_[qpn] = rpc_opcode;
  return Status::Ok();
}

void StromEngine::DetachReceiveTap(Qpn qpn) { taps_.erase(qpn); }

void StromEngine::Crash() {
  for (auto& [opcode, deployed] : kernels_) {
    (void)opcode;
    Deployed& d = *deployed;
    d.qpn_inbox.clear();
    d.param_inbox.clear();
    d.data_inbox.clear();
    d.dma_in_inbox.clear();
    d.dma_writes.clear();
    d.responses.clear();
    d.active_trace = TraceContext{};
    d.rpc_started = 0;
    d.kernel->Reset();
  }
}

void StromEngine::OnWriteTap(Qpn qpn, const FrameBuf& payload, bool last) {
  auto it = taps_.find(qpn);
  if (it == taps_.end()) {
    return;
  }
  Deployed& d = *kernels_.at(it->second);
  ++counters_.tapped_chunks;
  NetChunk chunk;
  chunk.data = payload;
  chunk.last = last;
  DeliverData(d, std::move(chunk));
}

void StromEngine::DeliverParams(Deployed& d, Qpn qpn, ByteBuffer params) {
  d.qpn_inbox.push_back(qpn);
  d.param_inbox.push_back(std::move(params));
  FlushInboxes(d);
}

void StromEngine::DeliverData(Deployed& d, NetChunk chunk) {
  d.data_inbox.push_back(std::move(chunk));
  FlushInboxes(d);
}

void StromEngine::FlushInboxes(Deployed& d) {
  KernelStreams& s = d.kernel->streams();
  while (!d.qpn_inbox.empty() && !s.qpn_in.Full() && !s.param_in.Full()) {
    s.qpn_in.Push(d.qpn_inbox.front());
    d.qpn_inbox.pop_front();
    s.param_in.Push(std::move(d.param_inbox.front()));
    d.param_inbox.pop_front();
  }
  while (!d.data_inbox.empty() && !s.roce_data_in.Full()) {
    s.roce_data_in.Push(std::move(d.data_inbox.front()));
    d.data_inbox.pop_front();
  }
  while (!d.dma_in_inbox.empty() && !s.dma_data_in.Full()) {
    s.dma_data_in.Push(std::move(d.dma_in_inbox.front()));
    d.dma_in_inbox.pop_front();
  }
}

void StromEngine::ServiceDmaCommands(Deployed& d) {
  KernelStreams& s = d.kernel->streams();
  while (!s.dma_cmd_out.Empty()) {
    MemCmd cmd = s.dma_cmd_out.Pop();
    if (cmd.is_write) {
      ++counters_.kernel_dma_writes;
      PendingDmaWrite w;
      w.addr = cmd.addr;
      w.length = cmd.length;
      w.collected = FrameBuf::AllocateUninit(cmd.length);
      d.dma_writes.push_back(std::move(w));
    } else {
      ++counters_.kernel_dma_reads;
      Deployed* dp = &d;
      dma_.Read(cmd.addr, cmd.length, [this, dp](Result<FrameBuf> data) {
        NetChunk chunk;
        if (data.ok()) {
          chunk.data = std::move(*data);
        } else {
          STROM_LOG(kError) << "kernel DMA read failed: " << data.status();
          ++counters_.kernel_dma_errors;
          chunk.error = true;
        }
        chunk.last = true;
        dp->dma_in_inbox.push_back(std::move(chunk));
        FlushInboxes(*dp);
      }, d.active_trace);
    }
  }
  CollectDmaWrites(d);
}

void StromEngine::CollectDmaWrites(Deployed& d) {
  KernelStreams& s = d.kernel->streams();
  while (!d.dma_writes.empty()) {
    PendingDmaWrite& w = d.dma_writes.front();
    while (w.filled < w.length && !s.dma_data_out.Empty()) {
      NetChunk chunk = s.dma_data_out.Pop();
      // Guards the frame's bound, so it runs before the copy.
      STROM_CHECK_LE(chunk.data.size(), w.length - w.filled)
          << "kernel " << d.kernel->name() << " overfilled a DMA write";
      if (!chunk.data.empty()) {
        std::memcpy(w.collected.data() + w.filled, chunk.data.data(), chunk.data.size());
      }
      w.filled += static_cast<uint32_t>(chunk.data.size());
    }
    if (w.filled < w.length) {
      return;  // wait for more data from the kernel
    }
    // Every byte of the uninitialized frame is written by now.
    Status wst = dma_.Write(w.addr, std::move(w.collected), nullptr, d.active_trace);
    if (!wst.ok()) {
      STROM_LOG(kError) << "kernel DMA write failed: " << wst;
      ++counters_.kernel_dma_errors;
    }
    d.dma_writes.pop_front();
  }
}

void StromEngine::CollectResponses(Deployed& d) {
  KernelStreams& s = d.kernel->streams();
  while (true) {
    if (d.responses.empty()) {
      if (s.roce_meta_out.Empty()) {
        return;
      }
      PendingResponse r;
      r.meta = s.roce_meta_out.Pop();
      r.collected.reserve(r.meta.length);
      d.responses.push_back(std::move(r));
    }
    PendingResponse& r = d.responses.front();
    while (r.collected.size() < r.meta.length && !s.roce_data_out.Empty()) {
      NetChunk chunk = s.roce_data_out.Pop();
      r.collected.insert(r.collected.end(), chunk.data.begin(), chunk.data.end());
    }
    if (r.collected.size() < r.meta.length) {
      return;  // wait for more response payload
    }

    WorkRequest wr;
    wr.kind = WorkRequest::Kind::kWrite;
    wr.qpn = r.meta.qpn;
    wr.remote_addr = r.meta.addr;
    wr.inline_data = std::move(r.collected);
    wr.length = r.meta.length;
    wr.trace = d.active_trace;
    ++counters_.kernel_responses;
    if (d.active_trace.sampled() && tracer_ != nullptr) {
      tracer_->Span(d.active_trace, track_, "kernel:" + d.kernel->name(), d.rpc_started,
                    sim_.now());
    }
    Status st = stack_.PostRequest(std::move(wr));
    if (!st.ok()) {
      STROM_LOG(kError) << "kernel response write rejected: " << st;
    }
    d.responses.pop_front();
  }
}

}  // namespace strom
