// PCIe DMA engine model (paper §4.3: Xilinx XDMA with descriptor bypass).
// Two independent streaming channels — card-to-host (writes) and
// host-to-card (reads) — each a FIFO server with:
//   * completion latency      (PCIe round trip: ~1.5 us read, paper fn.7),
//   * bandwidth               (Gen3 x8 ~= 6:1 vs 10G, Gen3 x16 ~= 1:1 vs 100G),
//   * per-command overhead    (TLP/descriptor cost; this is what makes
//                              random-access kernels lose at 100 G, §7).
// Commands are translated through the TLB; page-boundary crossings split into
// multiple physical segments, each paying the per-command overhead.
#ifndef SRC_PCIE_DMA_ENGINE_H_
#define SRC_PCIE_DMA_ENGINE_H_

#include <functional>

#include "src/common/frame_buf.h"
#include "src/common/status.h"
#include "src/pcie/host_memory.h"
#include "src/pcie/tlb.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"

namespace strom {

struct DmaConfig {
  uint64_t bandwidth_bps = 63'000'000'000ull;  // PCIe Gen3 x8 effective
  SimTime read_latency = Ns(700);              // command -> first data (one way up + back)
  SimTime write_latency = Ns(400);             // command -> data posted
  SimTime per_command_overhead = Ns(80);       // descriptor + TLP setup per segment
};

struct DmaCounters {
  uint64_t read_commands = 0;
  uint64_t write_commands = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t segment_splits = 0;
  uint64_t errors = 0;
};

class DmaEngine {
 public:
  using ReadCallback = std::function<void(Result<FrameBuf>)>;
  using WriteCallback = std::function<void(Status)>;
  // Consulted once per command at issue time with the current simulated
  // time; a non-OK status fails the command (driven by FaultEngine — see
  // src/faults/).
  using FaultHook = std::function<Status(bool is_write, SimTime now)>;

  DmaEngine(Simulator& sim, HostMemory& memory, Tlb& tlb, DmaConfig config);

  // Registers the DMA track and counter gauges under `process` (e.g. "node0").
  void AttachTelemetry(Telemetry* telemetry, const std::string& process);

  // Registers per-channel backlog probes (ns until the channel goes idle)
  // with the telemetry sampler.
  void AttachSampler(Telemetry* telemetry, const std::string& process);

  // Fetches `length` bytes at virtual address `virt`; the callback runs when
  // the last data beat arrives on the card.
  void Read(VirtAddr virt, uint64_t length, ReadCallback done, TraceContext trace = {});

  // Posts `data` to virtual address `virt`; the callback runs when the write
  // has been accepted by the host memory system. The data is shared, not
  // copied — on the RX path it is a sub-span of the received wire frame.
  // Returns non-OK iff an injected fault rejects the command at issue time
  // (nothing is written and `done` never runs); translation errors are still
  // delivered asynchronously through `done`, as on real hardware.
  Status Write(VirtAddr virt, FrameBuf data, WriteCallback done, TraceContext trace = {});

  // Installs a per-command fault hook (at most one; driven by FaultEngine).
  void SetFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }

  // Opts this engine into crash semantics: completions capture the crash
  // epoch and become no-ops if a Crash() intervened. The guarded captures
  // exceed SmallCallback's inline buffer, so this stays off unless a crash
  // plan actually targets the node — the clean-run hot path is unchanged.
  void EnableCrashFaults() { crash_enabled_ = true; }

  // Kills everything in flight: commands already issued never deliver their
  // completion (the pooled data buffer is released when the dead event pops,
  // so nothing leaks), and both channels are idle again for post-restart
  // traffic. Host memory itself is NOT touched — it models durable state.
  void Crash();

  const DmaCounters& counters() const { return counters_; }
  const DmaConfig& config() const { return config_; }

  // Time at which the given channel would accept a new command now.
  SimTime ReadChannelIdleAt() const { return read_busy_until_; }
  SimTime WriteChannelIdleAt() const { return write_busy_until_; }

 private:
  SimTime ServiceTime(const SegmentVec& segments) const;
  void CompleteRead(VirtAddr virt, uint64_t length, const ReadCallback& done);
  void CompleteWrite(VirtAddr virt, const FrameBuf& data, const WriteCallback& done);

  Simulator& sim_;
  HostMemory& memory_;
  Tlb& tlb_;
  DmaConfig config_;
  DmaCounters counters_;
  FaultHook fault_hook_;
  Tracer* tracer_ = nullptr;
  TrackId track_ = kInvalidTrack;
  SimTime read_busy_until_ = 0;
  SimTime write_busy_until_ = 0;
  bool crash_enabled_ = false;
  uint32_t crash_epoch_ = 0;
  // PCIe ordering: a read request pushes ahead posted writes — its data must
  // reflect every write posted before it. Tracks when the latest posted
  // write becomes visible in host memory.
  SimTime write_visible_at_ = 0;
};

}  // namespace strom

#endif  // SRC_PCIE_DMA_ENGINE_H_
