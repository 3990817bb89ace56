// SIGPROF stack sampler for the traced run. While armed, every profiling-timer
// tick records the interrupted call stack into a preallocated buffer; after
// StopCpuSampler() the stacks are folded into (frame offsets -> count). Frames
// inside this executable are given as offsets from its load address so an
// external symbolizer (addr2line -i) can map them to source files; frames in
// shared libraries become 0, which the symbolizer skips. The sampler state is
// process-wide because a signal handler can reach nothing else.
#ifndef PERFBENCH_CPU_SAMPLER_H_
#define PERFBENCH_CPU_SAMPLER_H_

#include <cstdint>
#include <map>
#include <vector>

namespace perfbench {

// Innermost frame first -> number of samples with exactly that stack.
using FoldedStacks = std::map<std::vector<uintptr_t>, uint64_t>;

// Installs the handler and arms ITIMER_PROF at `hz` samples per CPU second.
void StartCpuSampler(int hz);
// Disarms the timer and restores the previous handler.
void StopCpuSampler();

FoldedStacks FoldCpuSamples();
// Ticks that found the buffer full (reported so a truncated profile shows).
uint64_t DroppedCpuSamples();

}  // namespace perfbench

#endif  // PERFBENCH_CPU_SAMPLER_H_
