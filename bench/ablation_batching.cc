// Ablation (paper §7's closing remark on Fig 12c): "Batching of application
// commands will eliminate this limitation of the current implementation."
// Sweeps the doorbell batch size for 64 B writes on the 100 G profile: the
// message rate scales with the batch until the wire's small-packet capacity
// takes over as the limit.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

double RunBatchedWrites(int batch_size) {
  Profile profile = Profile100G();
  profile.controller.max_batch = static_cast<uint32_t>(batch_size);
  Testbed bed(profile);
  bed.ConnectQp(0, kQp, 1, kQp);
  const size_t region = MiB(4);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(region + 64)->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(region + 64)->addr;
  bed.node(0).driver().FillHost(local, region, 0x11);

  const int kMessages = 16000;
  int completed = 0;
  int posted = 0;
  SimTime first = -1;
  SimTime last = 0;
  const size_t slots = region / 64;

  std::function<void()> post_block = [&] {
    if (posted >= kMessages) {
      return;
    }
    if (first < 0) {
      first = bed.sim().now();
    }
    std::vector<RoceDriver::BatchWrite> block;
    for (int i = 0; i < batch_size && posted < kMessages; ++i, ++posted) {
      RoceDriver::BatchWrite w;
      w.local = local + (posted % slots) * 64;
      w.remote = remote + (posted % slots) * 64;
      w.length = 64;
      w.done = [&](Status st) {
        STROM_CHECK(st.ok()) << st;
        ++completed;
        last = bed.sim().now();
      };
      block.push_back(std::move(w));
    }
    block.back().done = [&, prev = std::move(block.back().done)](Status st) {
      prev(st);
      post_block();  // next doorbell when this block completes
    };
    bed.node(0).driver().PostWriteBatch(kQp, std::move(block));
  };
  // Keep several blocks in flight so the doorbell rate, not completion
  // latency, is measured.
  for (int i = 0; i < 8; ++i) {
    post_block();
  }
  bench::RunUntilDone(bed.sim(), "the batched WRITEs", [&] { return completed >= kMessages; });
  return static_cast<double>(kMessages) / ToSec(last - first) / 1e6;
}

void AblationBatching(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.counters["mmsg_per_s"] = RunBatchedWrites(batch);
  }
  state.counters["batch_size"] = batch;
}

BENCHMARK(AblationBatching)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Iterations(1);

}  // namespace
}  // namespace strom
