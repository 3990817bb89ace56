// StromEngine: the glue placed on the data path between the RoCE stack and
// the DMA engine (paper Fig 1/4). It
//   * deploys kernels and matches incoming RPC op-codes against them,
//   * services kernel DMA commands (dmaCmdOut/dmaDataIn/dmaDataOut) through
//     the shared DMA engine (the "DMA cmd merger" arbitration),
//   * turns kernel roceMetaOut/roceDataOut output into RDMA WRITEs back to
//     the requester (write semantics, so response size is run-time defined),
//   * supports local invocation from the host Controller, and
//   * can tap the plain RDMA WRITE receive path into a kernel
//     (bump-in-the-wire stream processing, e.g. the HLL kernel).
#ifndef SRC_STROM_ENGINE_H_
#define SRC_STROM_ENGINE_H_

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "src/pcie/dma_engine.h"
#include "src/roce/stack.h"
#include "src/strom/kernel.h"

namespace strom {

struct EngineCounters {
  uint64_t rpcs_dispatched = 0;
  uint64_t rpcs_unmatched = 0;
  uint64_t local_invocations = 0;
  uint64_t kernel_dma_reads = 0;
  uint64_t kernel_dma_writes = 0;
  uint64_t kernel_responses = 0;
  uint64_t tapped_chunks = 0;
  uint64_t kernel_dma_errors = 0;  // kernel-issued DMA commands that failed
};

class StromEngine {
 public:
  StromEngine(Simulator& sim, RoceStack& stack, DmaEngine& dma);

  StromEngine(const StromEngine&) = delete;
  StromEngine& operator=(const StromEngine&) = delete;

  // Deploys a kernel; its RPC op-code must be unique. (Run-time exchange via
  // partial reconfiguration is modeled by deploying/replacing kernels.)
  Status DeployKernel(std::unique_ptr<StromKernel> kernel);

  StromKernel* FindKernel(uint32_t rpc_opcode) const;

  // Registers the kernel track and EngineCounters gauges.
  void AttachTelemetry(Telemetry* telemetry, const std::string& process);

  // Registers an aggregate kernel stream/inbox occupancy probe with the
  // telemetry sampler.
  void AttachSampler(Telemetry* telemetry, const std::string& process);

  // Local invocation (paper §3.5): the host posts an RPC to its own NIC.
  Status InvokeLocal(uint32_t rpc_opcode, Qpn qpn, ByteBuffer params,
                     TraceContext trace = {});

  // Routes payload of plain RDMA WRITEs arriving on `qpn` into the kernel's
  // roceDataIn stream (receive kernel on the unmodified write path).
  Status AttachReceiveTap(Qpn qpn, uint32_t rpc_opcode);
  void DetachReceiveTap(Qpn qpn);

  // NIC crash: every in-flight invocation dies — inboxes, output collection
  // state, and the kernels' interface FIFOs are drained (pooled chunk
  // buffers released). Deployed kernels and receive taps persist: they model
  // configuration, which the restart restores from stable storage.
  void Crash();

  const EngineCounters& counters() const { return counters_; }

 private:
  struct PendingDmaWrite {
    VirtAddr addr = 0;
    uint32_t length = 0;
    uint32_t filled = 0;
    // Pooled and uninitialized: every byte is copied in before dma_.Write.
    FrameBuf collected;
  };
  struct PendingResponse {
    RoceMeta meta;
    ByteBuffer collected;
  };
  struct Deployed {
    std::unique_ptr<StromKernel> kernel;
    // Inboxes buffering pushes that found the kernel FIFO full.
    std::deque<Qpn> qpn_inbox;
    std::deque<ByteBuffer> param_inbox;
    std::deque<NetChunk> data_inbox;
    std::deque<NetChunk> dma_in_inbox;
    // Output-side collection state.
    std::deque<PendingDmaWrite> dma_writes;
    std::deque<PendingResponse> responses;
    // Trace of the invocation currently flowing through the kernel.
    TraceContext active_trace;
    SimTime rpc_started = 0;
  };

  bool OnRpc(RpcDelivery delivery);  // wired as the stack's RPC handler
  void OnWriteTap(Qpn qpn, const FrameBuf& payload, bool last);

  void ServiceDmaCommands(Deployed& d);
  void CollectDmaWrites(Deployed& d);
  void CollectResponses(Deployed& d);
  void FlushInboxes(Deployed& d);
  void DeliverParams(Deployed& d, Qpn qpn, ByteBuffer params);
  void DeliverData(Deployed& d, NetChunk chunk);

  Simulator& sim_;
  RoceStack& stack_;
  DmaEngine& dma_;
  std::map<uint32_t, std::unique_ptr<Deployed>> kernels_;  // by RPC op-code
  std::map<Qpn, uint32_t> taps_;
  EngineCounters counters_;
  Tracer* tracer_ = nullptr;
  TrackId track_ = kInvalidTrack;
};

}  // namespace strom

#endif  // SRC_STROM_ENGINE_H_
