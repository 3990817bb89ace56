// Figure 13a: throughput of HyperLogLog computed on the CPU while the data
// is received through StRoM RDMA writes at 100 G, for 1-8 threads. The CPU
// and the NIC compete for memory bandwidth and HLL's hashed register updates
// are memory-bound, so throughput scales sublinearly and plateaus far below
// line rate (measured points: 4.64 / 9.28 / 18.40 / 24.40 Gbit/s).
//
// The end-to-end rate is min(RDMA ingest, CPU HLL rate); the functional HLL
// estimate itself is computed for real over the streamed tuples and checked.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_util.h"
#include "src/kernels/hll_sketch.h"
#include "src/sim/task.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;
constexpr size_t kStreamBytes = 32 * 1000 * 1000;  // 32 MB of 8 B tuples
constexpr uint64_t kDistinct = 500'000;

double RunCpuHll(int threads, double* estimate_error) {
  Testbed bed(Profile100G());
  bed.ConnectQp(0, kQp, 1, kQp);
  const VirtAddr src = bed.node(0).driver().AllocBuffer(kStreamBytes + kHugePageSize)->addr;
  const VirtAddr dst = bed.node(1).driver().AllocBuffer(kStreamBytes + kHugePageSize)->addr;

  std::vector<uint64_t> tuples =
      TuplesWithCardinality(kStreamBytes / 8, kDistinct, 7);
  STROM_CHECK(bed.node(0).driver().WriteHost(src, TuplesToBytes(tuples)).ok());

  // Stream the data over RDMA; the receive completion marks ingest done.
  const SimTime start = bed.sim().now();
  bool write_done = false;
  bed.node(0).driver().PostWrite(kQp, src, dst, static_cast<uint32_t>(kStreamBytes),
                                 [&](Status st) {
                                   STROM_CHECK(st.ok()) << st;
                                   write_done = true;
                                 });
  bench::RunUntilDone(bed.sim(), "the ingest WRITE", [&] { return write_done; });
  const SimTime ingest_done = bed.sim().now();

  // The CPU threads chew through the received buffer at the calibrated
  // contended rate; processing overlaps ingest, so end time is the max.
  const SimTime cpu_time = bed.node(1).cpu().HllTime(kStreamBytes, threads);
  const SimTime finish = std::max(ingest_done, start + cpu_time);

  // Functional HLL over the real data (what those threads would compute).
  HllSketch sketch(14);
  ByteBuffer received = *bed.node(1).driver().ReadHost(dst, kStreamBytes);
  for (size_t i = 0; i + 8 <= received.size(); i += 8) {
    sketch.Add(LoadLe64(received.data() + i));
  }
  *estimate_error =
      std::abs(sketch.Estimate() - static_cast<double>(kDistinct)) / kDistinct;

  return static_cast<double>(kStreamBytes) * 8 / ToSec(finish - start) / 1e9;
}

void Fig13aCpuHll(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    double err = 0;
    state.counters["gbps"] = RunCpuHll(threads, &err);
    state.counters["estimate_rel_error"] = err;
  }
  state.counters["threads"] = threads;
  state.counters["paper_gbps"] = CpuModel().HllThroughputGbps(threads);
}

BENCHMARK(Fig13aCpuHll)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Iterations(1);

}  // namespace
}  // namespace strom
