#include "cpu_sampler.h"

#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace perfbench {
namespace {

constexpr int kMaxDepth = 48;
constexpr uint32_t kMaxSamples = 1 << 16;

struct Sample {
  int depth = 0;
  void* frames[kMaxDepth];
};

// Static storage: the handler must not allocate. Untouched pages of this
// zero-initialized array cost no resident memory.
Sample g_samples[kMaxSamples];
std::atomic<uint32_t> g_next{0};
std::atomic<uint64_t> g_dropped{0};
struct sigaction g_previous {};

void OnProfTick(int /*sig*/) {
  const uint32_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxSamples) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  g_samples[slot].depth = backtrace(g_samples[slot].frames, kMaxDepth);
}

}  // namespace

void StartCpuSampler(int hz) {
  g_next.store(0);
  g_dropped.store(0);
  // The first backtrace() call loads the unwinder, which allocates: do it
  // here, outside the handler.
  void* warm[4];
  (void)backtrace(warm, 4);

  struct sigaction sa {};
  sa.sa_handler = OnProfTick;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  if (sigaction(SIGPROF, &sa, &g_previous) != 0) {
    std::perror("sigaction(SIGPROF)");
    std::exit(1);
  }
  itimerval tv{};
  tv.it_interval.tv_usec = 1'000'000 / hz;
  tv.it_value = tv.it_interval;
  if (setitimer(ITIMER_PROF, &tv, nullptr) != 0) {
    std::perror("setitimer(ITIMER_PROF)");
    std::exit(1);
  }
}

void StopCpuSampler() {
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  sigaction(SIGPROF, &g_previous, nullptr);
}

FoldedStacks FoldCpuSamples() {
  Dl_info self{};
  dladdr(reinterpret_cast<void*>(&FoldCpuSamples), &self);
  FoldedStacks folded;
  const uint32_t n = std::min(g_next.load(), kMaxSamples);
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<uintptr_t> stack;
    for (int f = 0; f < g_samples[i].depth; ++f) {
      Dl_info info{};
      uintptr_t offset = 0;
      if (dladdr(g_samples[i].frames[f], &info) != 0 && info.dli_fbase == self.dli_fbase) {
        // Return addresses point after the call; step back into it so the
        // symbolizer reports the calling line.
        offset = reinterpret_cast<uintptr_t>(g_samples[i].frames[f]) -
                 reinterpret_cast<uintptr_t>(self.dli_fbase) - 1;
      }
      stack.push_back(offset);
    }
    ++folded[stack];
  }
  return folded;
}

uint64_t DroppedCpuSamples() { return g_dropped.load(); }

}  // namespace perfbench
