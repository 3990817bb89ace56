// Ablation (paper §7): the PCIe:network bandwidth ratio decides which
// kernels survive the move from 10 G (ratio ~6:1) to 100 G (~1:1).
//   * shuffle — random 128 B DMA writes pay the per-command PCIe overhead;
//     fine at 10 G, cannot keep line rate at 100 G.
//   * HLL     — pure streaming, no extra PCIe traffic; line rate at both.
// Reported: effective end-to-end Gbit/s vs the profile's line rate.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/kernels/hll.h"
#include "src/kernels/shuffle.h"
#include "src/sim/task.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;
constexpr size_t kStreamBytes = 16 * 1000 * 1000;

double RunShuffleStream(const Profile& profile) {
  Testbed bed(profile);
  bed.ConnectQp(0, kQp, 1, kQp);
  const KernelConfig kc{profile.roce.clock_ps, profile.roce.data_width};
  STROM_CHECK(
      bed.node(1).engine().DeployKernel(std::make_unique<ShuffleKernel>(bed.node(1).sim(), kc)).ok());

  const VirtAddr resp = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr input = bed.node(0).driver().AllocBuffer(kStreamBytes + kHugePageSize)->addr;
  const uint64_t stride = ((kStreamBytes / 1024) * 2) & ~uint64_t{7};  // 8 B aligned
  const VirtAddr dest = bed.node(1).driver().AllocBuffer(stride * 1024 + kHugePageSize)->addr;
  STROM_CHECK(bed.node(0)
                  .driver()
                  .WriteHost(input, TuplesToBytes(RandomTuples(kStreamBytes / 8, 4)))
                  .ok());

  RoceDriver& drv = bed.node(0).driver();
  drv.WriteHostU64(resp, 0);
  const SimTime start = bed.sim().now();
  ShuffleParams config;
  config.target_addr = resp;
  config.partition_bits = 10;
  config.region_base = dest;
  config.region_stride = stride;
  drv.PostRpc(kShuffleRpcOpcode, kQp, config.Encode(), bench::CheckWrite);
  drv.PostRpcWrite(kShuffleRpcOpcode, kQp, input, kStreamBytes, bench::CheckWrite);

  bool done = false;
  struct Ctx {
    Testbed& bed;
    VirtAddr resp;
    bool* done;
  };
  auto waiter = [](Ctx c) -> Task {
    auto poll = c.bed.node(0).driver().PollU64(c.resp, 0);
    co_await poll;
    *c.done = true;
  };
  bed.sim().Spawn(waiter(Ctx{bed, resp, &done}));
  bench::RunUntilDone(bed.sim(), "the shuffle stream", [&] { return done; });
  // The data is not shuffled until it is in host memory: include the drain
  // of the queued random-access DMA writes (this is exactly where the
  // per-command PCIe overhead bites at 100 G, paper §7).
  const SimTime status_at = bed.sim().now();
  bed.sim().RunUntilIdle();
  const SimTime end = std::max(status_at, bed.sim().now());
  return static_cast<double>(kStreamBytes) * 8 / ToSec(end - start) / 1e9;
}

double RunHllStream(const Profile& profile) {
  Testbed bed(profile);
  bed.ConnectQp(0, kQp, 1, kQp);
  const KernelConfig kc{profile.roce.clock_ps, profile.roce.data_width};
  STROM_CHECK(
      bed.node(1).engine().DeployKernel(std::make_unique<HllKernel>(bed.node(1).sim(), kc)).ok());
  const VirtAddr resp = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr input = bed.node(0).driver().AllocBuffer(kStreamBytes + kHugePageSize)->addr;
  STROM_CHECK(bed.node(0)
                  .driver()
                  .WriteHost(input, TuplesToBytes(RandomTuples(kStreamBytes / 8, 4)))
                  .ok());

  RoceDriver& drv = bed.node(0).driver();
  drv.WriteHostU64(resp + 8, 0);
  const SimTime start = bed.sim().now();
  HllParams params;
  params.target_addr = resp;
  drv.PostRpc(kHllRpcOpcode, kQp, params.Encode(), bench::CheckWrite);
  drv.PostRpcWrite(kHllRpcOpcode, kQp, input, kStreamBytes, bench::CheckWrite);

  bool done = false;
  struct Ctx {
    Testbed& bed;
    VirtAddr resp;
    bool* done;
  };
  auto waiter = [](Ctx c) -> Task {
    auto poll = c.bed.node(0).driver().PollU64(c.resp + 8, 0);
    co_await poll;
    *c.done = true;
  };
  bed.sim().Spawn(waiter(Ctx{bed, resp, &done}));
  bench::RunUntilDone(bed.sim(), "the HLL stream", [&] { return done; });
  return static_cast<double>(kStreamBytes) * 8 / ToSec(bed.sim().now() - start) / 1e9;
}

void AblationShuffle10G(benchmark::State& state) {
  for (auto _ : state) {
    state.counters["gbps"] = RunShuffleStream(Profile10G());
  }
  state.counters["line_rate_gbps"] = 10;
}
void AblationShuffle100G(benchmark::State& state) {
  for (auto _ : state) {
    state.counters["gbps"] = RunShuffleStream(Profile100G());
  }
  state.counters["line_rate_gbps"] = 100;
}
void AblationHll10G(benchmark::State& state) {
  for (auto _ : state) {
    state.counters["gbps"] = RunHllStream(Profile10G());
  }
  state.counters["line_rate_gbps"] = 10;
}
void AblationHll100G(benchmark::State& state) {
  for (auto _ : state) {
    state.counters["gbps"] = RunHllStream(Profile100G());
  }
  state.counters["line_rate_gbps"] = 100;
}

BENCHMARK(AblationShuffle10G)->Iterations(1);
BENCHMARK(AblationShuffle100G)->Iterations(1);
BENCHMARK(AblationHll10G)->Iterations(1);
BENCHMARK(AblationHll100G)->Iterations(1);

}  // namespace
}  // namespace strom
