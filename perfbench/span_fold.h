// Folds the Tracer's spans into simulated-time self time per stage. Spans are
// grouped by trace id; within one trace, every instant of the trace's extent
// [first begin, last end] is charged to exactly one stage: the innermost span
// covering it, where "innermost" follows the fixed nesting order of the
// layers (a DMA inside a kernel inside a NIC message inside a verb). An
// instant no span covers is "uncovered". A stage's self time is therefore its
// spans' duration minus the part covered by their children, and the stage
// totals of a trace add up to its extent.
#ifndef PERFBENCH_SPAN_FOLD_H_
#define PERFBENCH_SPAN_FOLD_H_

#include <array>
#include <cstdint>

#include "src/telemetry/trace.h"

namespace perfbench {

// Outermost first; a later stage nests inside an earlier one.
enum Stage : int {
  kVerbs,     // driver verb, post -> network completion ("verbs" track)
  kNicMsg,    // NIC message lifetime not in any packet stage ("nic.msg")
  kDoorbell,  // MMIO doorbell + WQE fetch ("host" track, cmd.issue)
  kKernel,    // StRoM kernel invocation ("kernel")
  kNicTx,     // NIC transmit pipeline ("nic.tx")
  kNicRx,     // NIC receive pipeline ("nic.rx")
  kWire,      // serialization + propagation on one link ("wire ...")
  kDma,       // PCIe DMA read/write ("dma")
  kUncovered,
  kNumStages,
};

inline constexpr const char* kStageNames[kNumStages] = {
    "verbs", "nic_msg", "doorbell", "kernel", "nic_tx", "nic_rx", "wire", "dma", "uncovered"};

struct StageTimes {
  std::array<strom::SimTime, kNumStages> self{};
  strom::SimTime extent = 0;  // sum of trace extents == sum of self
  uint64_t traces = 0;
};

StageTimes FoldSpans(const strom::Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_FOLD_H_
