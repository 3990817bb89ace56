// Figure 11: average execution time for partitioning + transmitting a stream
// of 8 B tuples into 1024 partitions, three approaches:
//   * SW + RDMA WRITE — sender partitions on the CPU (extra pass + copy),
//     then writes each partition to remote memory (Barthels et al.),
//   * StRoM           — the shuffle kernel partitions on the receiving NIC
//     while data flows (bump in the wire),
//   * RDMA WRITE      — plain transmission, no partitioning (lower bound).
//
// Paper input sizes are 128 MB - 1 GB; by default this bench runs 1/8-scale
// inputs (16 - 128 MB) so the full suite stays fast — execution time is
// linear in input size, so the shape is unchanged. Set STROM_FULL_SCALE=1
// for the paper's sizes.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench/bench_util.h"
#include "src/kernels/shuffle.h"
#include "src/sim/task.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;
constexpr uint32_t kPartitionBits = 10;  // 1024 partitions
constexpr uint32_t kNumPartitions = 1u << kPartitionBits;

size_t ScaledBytes(int64_t mb) {
  const char* full = std::getenv("STROM_FULL_SCALE");
  const size_t scale = (full != nullptr && full[0] == '1') ? 1 : 8;
  return static_cast<size_t>(mb) * 1000 * 1000 / scale;
}

struct ShuffleBed {
  explicit ShuffleBed(size_t input_bytes) : bed(Profile10G()) {
    bed.ConnectQp(0, kQp, 1, kQp);
    const KernelConfig kc{bed.profile().roce.clock_ps, bed.profile().roce.data_width};
    // The kernel runs on node 1's NIC, so it is built on node 1's simulator.
    STROM_CHECK(bed.node(1)
                    .engine()
                    .DeployKernel(std::make_unique<ShuffleKernel>(bed.node(1).sim(), kc))
                    .ok());
    resp = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
    input = bed.node(0).driver().AllocBuffer(input_bytes + kHugePageSize)->addr;
    // Destination: per-partition regions with 50% headroom.
    stride = (input_bytes / kNumPartitions) * 3 / 2 + 256;
    stride = (stride + 7) & ~uint64_t{7};
    dest = bed.node(1).driver().AllocBuffer(stride * kNumPartitions + kHugePageSize)->addr;

    // Fill the input with random tuples (streamed in chunks to bound RAM).
    Rng rng(99);
    const size_t chunk_bytes = MiB(4);
    ByteBuffer chunk(chunk_bytes);
    size_t written = 0;
    while (written < input_bytes) {
      const size_t n = std::min(chunk_bytes, input_bytes - written);
      for (size_t i = 0; i + 8 <= n; i += 8) {
        StoreLe64(chunk.data() + i, rng.Next());
      }
      STROM_CHECK(
          bed.node(0).driver().WriteHost(input + written, ByteSpan(chunk.data(), n)).ok());
      written += n;
    }
  }

  Testbed bed;
  VirtAddr resp = 0;
  VirtAddr input = 0;
  VirtAddr dest = 0;
  uint64_t stride = 0;
};

// Plain RDMA WRITE of the whole input (no partitioning).
double RunPlainWrite(size_t bytes) {
  ShuffleBed tb(bytes);
  bool done = false;
  const SimTime start = tb.bed.sim().now();
  tb.bed.node(0).driver().PostWrite(kQp, tb.input, tb.dest, static_cast<uint32_t>(bytes),
                                    [&](Status st) {
                                      STROM_CHECK(st.ok()) << st;
                                      done = true;
                                    });
  bench::RunUntilDone(tb.bed.sim(), "the software shuffle's stream", [&] { return done; });
  return ToSec(tb.bed.sim().now() - start);
}

// StRoM: configure the shuffle kernel, then stream via RDMA RPC WRITE.
double RunStrom(size_t bytes) {
  ShuffleBed tb(bytes);
  RoceDriver& drv = tb.bed.node(0).driver();
  drv.WriteHostU64(tb.resp, 0);

  const SimTime start = tb.bed.sim().now();
  ShuffleParams config;
  config.target_addr = tb.resp;
  config.partition_bits = kPartitionBits;
  config.region_base = tb.dest;
  config.region_stride = tb.stride;
  drv.PostRpc(kShuffleRpcOpcode, kQp, config.Encode());
  drv.PostRpcWrite(kShuffleRpcOpcode, kQp, tb.input, static_cast<uint32_t>(bytes));

  bool done = false;
  struct Ctx {
    ShuffleBed& tb;
    bool* done;
  };
  auto waiter = [](Ctx c) -> Task {
    auto poll = c.tb.bed.node(0).driver().PollU64(c.tb.resp, 0);
    co_await poll;
    *c.done = true;
  };
  tb.bed.sim().Spawn(waiter(Ctx{tb, &done}));
  bench::RunUntilDone(tb.bed.sim(), "the StRoM shuffle", [&] { return done; });
  const SimTime status_at = tb.bed.sim().now();
  // Count until the partitioned data has fully drained into host memory
  // (at 10 G the drain overlaps the stream; see ablation_pcie_ratio for the
  // 100 G case where it does not).
  tb.bed.sim().RunUntilIdle();
  const SimTime elapsed = std::max(status_at, tb.bed.sim().now()) - start;

  // Sanity: no partition overflowed on the NIC.
  auto* kernel =
      static_cast<ShuffleKernel*>(tb.bed.node(1).engine().FindKernel(kShuffleRpcOpcode));
  STROM_CHECK_EQ(kernel->overflow_drops(), 0u);
  return ToSec(elapsed);
}

// SW + RDMA WRITE: partition on the sending CPU, then write each partition.
double RunSwPlusWrite(size_t bytes) {
  ShuffleBed tb(bytes);
  RoceDriver& drv = tb.bed.node(0).driver();
  bool finished = false;
  SimTime elapsed = 0;

  struct Ctx {
    ShuffleBed& tb;
    size_t bytes;
    bool* finished;
    SimTime* elapsed;
  };
  auto sender = [](Ctx c) -> Task {
    RoceDriver& d = c.tb.bed.node(0).driver();
    const SimTime start = c.tb.bed.sim().now();
    // The partitioning pass over the data: hash each tuple and copy it into
    // its software partition buffer (the cost Fig 11 attributes to the CPU).
    co_await Delay(c.tb.bed.sim(), c.tb.bed.node(0).cpu().PartitionTime(c.bytes));
    // Then write each partition to its remote region. Partition sizes are
    // uniform under the radix hash of random tuples.
    const uint64_t per_partition = (c.bytes / kNumPartitions) & ~uint64_t{7};
    int outstanding = 0;
    bool all_posted = false;
    SimEvent done(c.tb.bed.sim());
    for (uint32_t p = 0; p < kNumPartitions; ++p) {
      ++outstanding;
      d.PostWrite(kQp, c.tb.input + p * per_partition, c.tb.dest + p * c.tb.stride,
                  static_cast<uint32_t>(per_partition), [&](Status st) {
                    STROM_CHECK(st.ok()) << st;
                    if (--outstanding == 0 && all_posted) {
                      done.Trigger();
                    }
                  });
    }
    all_posted = true;
    if (outstanding > 0) {
      co_await done.Wait();
    }
    *c.elapsed = c.tb.bed.sim().now() - start;
    *c.finished = true;
  };
  tb.bed.sim().Spawn(sender(Ctx{tb, bytes, &finished, &elapsed}));
  bench::RunUntilDone(tb.bed.sim(), "the send/receive shuffle", [&] { return finished; });
  (void)drv;
  return ToSec(elapsed);
}

std::string PointKey(const char* approach, int64_t mb) {
  return std::string(approach) + "/" + std::to_string(mb);
}

// Each (approach, input size) pair is a sweep point; the 12 points dominate
// the suite's wall clock and scale nearly linearly with --jobs.
const bool kSweepRegistered = [] {
  for (int64_t mb : {128, 256, 512, 1024}) {
    bench::DefineSweepPoint(PointKey("plain", mb), [mb] {
      return std::vector<double>{RunPlainWrite(ScaledBytes(mb))};
    });
  }
  for (int64_t mb : {128, 256, 512, 1024}) {
    bench::DefineSweepPoint(PointKey("strom", mb), [mb] {
      return std::vector<double>{RunStrom(ScaledBytes(mb))};
    });
  }
  for (int64_t mb : {128, 256, 512, 1024}) {
    bench::DefineSweepPoint(PointKey("sw", mb), [mb] {
      return std::vector<double>{RunSwPlusWrite(ScaledBytes(mb))};
    });
  }
  return true;
}();

void Fig11PlainWrite(benchmark::State& state) {
  for (auto _ : state) {
    state.counters["exec_s"] = bench::SweepResult(PointKey("plain", state.range(0)))[0];
  }
  state.counters["input_MB"] = static_cast<double>(ScaledBytes(state.range(0))) / 1e6;
}
void Fig11Strom(benchmark::State& state) {
  for (auto _ : state) {
    state.counters["exec_s"] = bench::SweepResult(PointKey("strom", state.range(0)))[0];
  }
  state.counters["input_MB"] = static_cast<double>(ScaledBytes(state.range(0))) / 1e6;
}
void Fig11SwPlusWrite(benchmark::State& state) {
  for (auto _ : state) {
    state.counters["exec_s"] = bench::SweepResult(PointKey("sw", state.range(0)))[0];
  }
  state.counters["input_MB"] = static_cast<double>(ScaledBytes(state.range(0))) / 1e6;
}

BENCHMARK(Fig11PlainWrite)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Iterations(1);
BENCHMARK(Fig11Strom)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Iterations(1);
BENCHMARK(Fig11SwPlusWrite)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Iterations(1);

}  // namespace
}  // namespace strom
