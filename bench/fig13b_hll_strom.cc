// Figure 13b: throughput of the HLL StRoM kernel at 100 G. Compares a plain
// RDMA WRITE stream ("Write") against the same stream with the HLL kernel
// tapping the receive path ("Write+HLL"). The kernel sustains one data-path
// word per cycle (II=1), so the two curves coincide — HLL costs nothing.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/kernels/hll.h"
#include "src/sim/task.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

double RunWriteStream(size_t payload, bool with_hll, uint64_t* items_seen) {
  Testbed bed(Profile100G());
  bed.ConnectQp(0, kQp, 1, kQp);
  HllKernel* kernel = nullptr;
  if (with_hll) {
    const KernelConfig kc{bed.profile().roce.clock_ps, bed.profile().roce.data_width};
    auto owned = std::make_unique<HllKernel>(bed.node(1).sim(), kc);
    kernel = owned.get();
    STROM_CHECK(bed.node(1).engine().DeployKernel(std::move(owned)).ok());
    STROM_CHECK(bed.node(1).engine().AttachReceiveTap(kQp, kHllRpcOpcode).ok());
  }

  const size_t region = MiB(8);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(region + payload)->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(region + payload)->addr;
  bed.node(0).driver().WriteHost(local, RandomBytes(region, 3)).ok();

  const int messages = bench::MessagesForPayload(payload);
  int posted = 0;
  int completed = 0;
  SimTime first_post = -1;
  SimTime last_done = 0;
  std::function<void()> post_next = [&] {
    if (posted >= messages) {
      return;
    }
    const size_t slots = region / std::max<size_t>(payload, 64);
    const VirtAddr offset = (posted % slots) * payload;
    ++posted;
    if (first_post < 0) {
      first_post = bed.sim().now();
    }
    bed.node(0).driver().PostWrite(kQp, local + offset, remote + offset,
                                   static_cast<uint32_t>(payload), [&](Status st) {
                                     STROM_CHECK(st.ok()) << st;
                                     ++completed;
                                     last_done = bed.sim().now();
                                     post_next();
                                   });
  };
  for (int i = 0; i < 128; ++i) {
    post_next();
  }
  bench::RunUntilDone(bed.sim(), "the WRITE stream", [&] { return completed >= messages; });

  if (kernel != nullptr) {
    bed.sim().RunUntilIdle();
    *items_seen = kernel->items_processed();
    // The kernel must not have fallen behind the stream (line rate).
    STROM_CHECK_LE(kernel->last_item_done_at(), last_done + Us(5));
  }
  return static_cast<double>(messages) * static_cast<double>(payload) * 8 /
         ToSec(last_done - first_post) / 1e9;
}

void Fig13bWrite(benchmark::State& state) {
  const size_t payload = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    uint64_t unused = 0;
    state.counters["gbps"] = RunWriteStream(payload, /*with_hll=*/false, &unused);
  }
  // No sketch runs here. Both families carry the same counters: the CSV
  // reporter takes its columns from the first run.
  state.counters["items_sketched"] = 0;
  state.counters["payload_B"] = static_cast<double>(payload);
}

void Fig13bWritePlusHll(benchmark::State& state) {
  const size_t payload = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    uint64_t items = 0;
    state.counters["gbps"] = RunWriteStream(payload, /*with_hll=*/true, &items);
    state.counters["items_sketched"] = static_cast<double>(items);
  }
  state.counters["payload_B"] = static_cast<double>(payload);
}

BENCHMARK(Fig13bWrite)->RangeMultiplier(4)->Range(64, 16384)->Iterations(1);
BENCHMARK(Fig13bWritePlusHll)->RangeMultiplier(4)->Range(64, 16384)->Iterations(1);

}  // namespace
}  // namespace strom
