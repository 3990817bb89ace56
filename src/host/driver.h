// RoceDriver: the user-space API of our kernel driver (paper §4.3/§5.3).
// It pins hugepage-backed buffers (populating the NIC TLB), exposes the
// verbs — Write/Read plus the StRoM verbs postRpc/postRpcWrite — and
// provides the memory-polling primitive the paper's benchmarks use for
// completion detection. Coroutine wrappers make multi-step remote
// interactions read as straight-line code in examples and benches.
#ifndef SRC_HOST_DRIVER_H_
#define SRC_HOST_DRIVER_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/host/controller.h"
#include "src/pcie/host_memory.h"
#include "src/pcie/tlb.h"
#include "src/sim/task.h"

namespace strom {

// A pinned, TLB-mapped registration returned by AllocBuffer.
struct RdmaBuffer {
  VirtAddr addr = 0;
  uint64_t size = 0;
};

// Granularity at which a spinning host thread re-checks a polled cache
// line (load + compare on an invalidated line).
inline constexpr SimTime kPollInterval = Ns(50);

class RoceDriver {
 public:
  RoceDriver(Simulator& sim, HostMemory& memory, Tlb& tlb, Controller& controller);

  // Registers the verbs track. Once attached, every posted verb draws a
  // TraceContext from the tracer (subject to sampling) and records a
  // whole-verb span from post to network completion.
  void AttachTelemetry(Telemetry* telemetry, const std::string& process);

  // --- memory management ----------------------------------------------------
  // Allocates `size` bytes of pinned hugepage memory, maps every page in the
  // NIC TLB, and returns the virtual registration.
  Result<RdmaBuffer> AllocBuffer(uint64_t size);

  // Host-CPU access to pinned memory (zero simulated cost; the CPU model
  // charges compute time separately where it matters).
  Status WriteHost(VirtAddr addr, ByteSpan data);
  Result<ByteBuffer> ReadHost(VirtAddr addr, uint64_t len) const;
  uint64_t ReadHostU64(VirtAddr addr) const;
  void WriteHostU64(VirtAddr addr, uint64_t value);
  void FillHost(VirtAddr addr, uint64_t len, uint8_t value);

  // --- verbs (asynchronous, callback on network completion) ------------------
  void PostWrite(Qpn qpn, VirtAddr local, VirtAddr remote, uint32_t length,
                 std::function<void(Status)> done = nullptr);
  void PostRead(Qpn qpn, VirtAddr local, VirtAddr remote, uint32_t length,
                std::function<void(Status)> done = nullptr);
  // Batched write submission: one doorbell per up-to-max_batch requests
  // (§7's command-batching remedy for the message-rate ceiling). `writes`
  // are (local, remote, length) triples on one QP.
  struct BatchWrite {
    VirtAddr local = 0;
    VirtAddr remote = 0;
    uint32_t length = 0;
    std::function<void(Status)> done;
  };
  void PostWriteBatch(Qpn qpn, std::vector<BatchWrite> writes);

  // postRpc (paper Listing 5): op-code + parameter block (<= one MTU).
  void PostRpc(uint32_t rpc_opcode, Qpn qpn, ByteBuffer params,
               std::function<void(Status)> done = nullptr);
  // postRpcWrite: attach payload from pinned memory to an RPC.
  void PostRpcWrite(uint32_t rpc_opcode, Qpn qpn, VirtAddr origin, uint32_t length,
                    std::function<void(Status)> done = nullptr);
  // Local StRoM invocation on this node's own NIC.
  void PostLocalRpc(uint32_t rpc_opcode, Qpn qpn, ByteBuffer params);

  // Reads the NIC's status/performance registers, charging the MMIO
  // round-trip to the calling coroutine.
  ValueTask<RoceCounters> QueryNicCounters();

  // --- error handling --------------------------------------------------------
  // Application callback for QPs the NIC moves to the Error state. All
  // flushed WRs complete with an error status before the handler fires; the
  // handler should schedule recovery (ResetQp + peer resync), not reconnect
  // inline.
  void SetQpErrorHandler(RoceStack::QpErrorHandler handler) {
    controller_.SetQpErrorHandler(std::move(handler));
  }
  // Resets an errored QP back to a fresh state (PSN resync). The peer must
  // reset too before traffic resumes.
  Status ResetQp(Qpn qpn) { return controller_.ResetQp(qpn); }

  // --- coroutine wrappers ----------------------------------------------------
  ValueTask<Status> Write(Qpn qpn, VirtAddr local, VirtAddr remote, uint32_t length);
  ValueTask<Status> Read(Qpn qpn, VirtAddr local, VirtAddr remote, uint32_t length);

  // Spins on the 8-byte word at `addr` until it differs from `sentinel`;
  // returns the observed value (the paper's ping-pong completion detection).
  // The host thread re-reads the word every kPollInterval, but only a write
  // can change what it reads, so the poll parks on the word instead of
  // ticking (DESIGN.md §13). The rule:
  //  - A poll that starts at t0 and reads `sentinel` resumes at
  //    t0 + k * kPollInterval, for the least k >= 1 at or after the instant
  //    W of the first write that overlaps the word.
  //  - That write schedules the wake, so the wake takes its seq at the
  //    write, and same-instant ties order by the writes.
  //  - The wake re-reads the word. If it holds `sentinel` again, the poll
  //    parks once more on the same grid.
  // A poll that nothing writes schedules no event, so it lets the queue go
  // idle. The word must not straddle two huge pages (checked at the start).
  ValueTask<uint64_t> PollU64(VirtAddr addr, uint64_t sentinel);

  Simulator& sim() { return sim_; }
  Controller& controller() { return controller_; }

 private:
  WorkRequest MakeRequest(WorkRequest::Kind kind, Qpn qpn, VirtAddr local, VirtAddr remote,
                          uint32_t length, std::function<void(Status)> done);
  // Draws a trace context for `wr` and, when sampled, wraps on_complete to
  // record the whole-verb span on completion.
  void BeginTrace(WorkRequest& wr, const char* verb);

  Simulator& sim_;
  HostMemory& memory_;
  Tlb& tlb_;
  Controller& controller_;
  VirtAddr next_va_ = kHugePageSize;  // VA 0 reserved as "null"
  uint64_t next_wr_id_ = 1;
  Tracer* tracer_ = nullptr;
  TrackId track_ = kInvalidTrack;
};

}  // namespace strom

#endif  // SRC_HOST_DRIVER_H_
