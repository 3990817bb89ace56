// Figure 10: average latency of reading a remote object while a fraction of
// reads observe a torn (inconsistent) object — failure rates 0, 0.5%, 5%,
// 50% at object sizes 64 B / 512 B / 4 KiB. A failed consistency check
// forces a retry; the retry always succeeds (the writer finished meanwhile).
//   * READ+SW — the retry costs a full extra network round trip,
//   * StRoM   — the retry is a PCIe re-read on the remote NIC.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/kernels/consistency.h"
#include "src/kvs/versioned_object.h"
#include "src/sim/task.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;
constexpr int kReads = 400;

struct FailureBed {
  explicit FailureBed(uint32_t object_size) : bed(Profile10G()) {
    bed.ConnectQp(0, kQp, 1, kQp);
    const KernelConfig kc{bed.profile().roce.clock_ps, bed.profile().roce.data_width};
    STROM_CHECK(bed.node(1)
                    .engine()
                    .DeployKernel(std::make_unique<ConsistencyKernel>(bed.node(1).sim(), kc))
                    .ok());
    resp = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
    local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
    const VirtAddr region = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
    store.emplace(bed.node(1).driver(), region, object_size);
    STROM_CHECK(store->WriteObject(0, 5).ok());
  }

  // Injects a torn object that the concurrent writer repairs shortly after
  // the first read observes it ("consecutive retries always succeed").
  void InjectFailure(uint64_t round) {
    STROM_CHECK(store->TearObject(0, 100 + round).ok());
    VersionedObjectStore* s = &*store;
    bed.sim().Schedule(Us(4), [s] { STROM_CHECK(s->RepairObject(0).ok()); });
  }

  Testbed bed;
  std::optional<VersionedObjectStore> store;
  VirtAddr resp = 0;
  VirtAddr local = 0;
};

double RunReadPlusSw(uint32_t size, double failure_rate) {
  FailureBed tb(size);
  double total_us = 0;
  bool finished = false;
  struct Ctx {
    FailureBed& tb;
    uint32_t size;
    double failure_rate;
    double* total_us;
    bool* finished;
  };
  auto reader = [](Ctx c) -> Task {
    RoceDriver& drv = c.tb.bed.node(0).driver();
    const VirtAddr obj = c.tb.store->ObjectAddr(0);
    Rng rng(3);
    for (int i = 0; i < kReads; ++i) {
      const bool fail = rng.Chance(c.failure_rate);
      if (fail) {
        c.tb.InjectFailure(static_cast<uint64_t>(i));
      }
      const SimTime start = c.tb.bed.sim().now();
      while (true) {
        auto read = drv.Read(kQp, c.tb.local, obj, c.size);
        Status st = co_await read;
        STROM_CHECK(st.ok()) << st;
        co_await Delay(c.tb.bed.sim(), c.tb.bed.node(0).cpu().Crc64Time(c.size - 8));
        ByteBuffer object = *drv.ReadHost(c.tb.local, c.size);
        if (VersionedObjectStore::IsConsistent(object)) {
          break;  // success; failures force one more network round trip
        }
      }
      *c.total_us += ToUs(c.tb.bed.sim().now() - start);
    }
    *c.finished = true;
  };
  tb.bed.sim().Spawn(reader(Ctx{tb, size, failure_rate, &total_us, &finished}));
  bench::RunUntilDone(tb.bed.sim(), "the software-retry reads", [&] { return finished; });
  return total_us / kReads;
}

double RunStrom(uint32_t size, double failure_rate) {
  FailureBed tb(size);
  double total_us = 0;
  bool finished = false;
  struct Ctx {
    FailureBed& tb;
    uint32_t size;
    double failure_rate;
    double* total_us;
    bool* finished;
  };
  auto reader = [](Ctx c) -> Task {
    RoceDriver& drv = c.tb.bed.node(0).driver();
    const VirtAddr obj = c.tb.store->ObjectAddr(0);
    Rng rng(3);
    for (int i = 0; i < kReads; ++i) {
      if (rng.Chance(c.failure_rate)) {
        c.tb.InjectFailure(static_cast<uint64_t>(i));
      }
      drv.WriteHostU64(c.tb.resp + c.size, 0);
      const SimTime start = c.tb.bed.sim().now();
      ConsistencyParams params;
      params.target_addr = c.tb.resp;
      params.remote_addr = obj;
      params.length = c.size;
      params.max_attempts = 64;
      drv.PostRpc(kConsistencyRpcOpcode, kQp, params.Encode());
      auto poll = drv.PollU64(c.tb.resp + c.size, 0);
      const uint64_t status = co_await poll;
      STROM_CHECK(StatusWordCode(status) == KernelStatusCode::kOk);
      *c.total_us += ToUs(c.tb.bed.sim().now() - start);
    }
    *c.finished = true;
  };
  tb.bed.sim().Spawn(reader(Ctx{tb, size, failure_rate, &total_us, &finished}));
  bench::RunUntilDone(tb.bed.sim(), "the StRoM reads", [&] { return finished; });
  return total_us / kReads;
}

std::string PointKey(const char* approach, int64_t size, int64_t permille) {
  return std::string(approach) + "/" + std::to_string(size) + "/" + std::to_string(permille);
}

// Each (approach, size, failure-rate) triple is a sweep point; see
// bench_util.h --jobs.
const bool kSweepRegistered = [] {
  for (int64_t size : {64, 512, 4096}) {
    for (int64_t permille : {0, 5, 50, 500}) {
      bench::DefineSweepPoint(PointKey("sw", size, permille), [size, permille] {
        return std::vector<double>{
            RunReadPlusSw(static_cast<uint32_t>(size), static_cast<double>(permille) / 1000.0)};
      });
    }
  }
  for (int64_t size : {64, 512, 4096}) {
    for (int64_t permille : {0, 5, 50, 500}) {
      bench::DefineSweepPoint(PointKey("strom", size, permille), [size, permille] {
        return std::vector<double>{
            RunStrom(static_cast<uint32_t>(size), static_cast<double>(permille) / 1000.0)};
      });
    }
  }
  return true;
}();

// args: {size, failure_rate_permille}
void Fig10ReadPlusSw(benchmark::State& state) {
  const int64_t size = state.range(0);
  const int64_t permille = state.range(1);
  for (auto _ : state) {
    state.counters["avg_us"] = bench::SweepResult(PointKey("sw", size, permille))[0];
  }
  state.counters["object_B"] = static_cast<double>(size);
  state.counters["failure_rate"] = static_cast<double>(permille) / 1000.0;
}
void Fig10Strom(benchmark::State& state) {
  const int64_t size = state.range(0);
  const int64_t permille = state.range(1);
  for (auto _ : state) {
    state.counters["avg_us"] = bench::SweepResult(PointKey("strom", size, permille))[0];
  }
  state.counters["object_B"] = static_cast<double>(size);
  state.counters["failure_rate"] = static_cast<double>(permille) / 1000.0;
}

void FailureArgs(benchmark::internal::Benchmark* b) {
  for (int64_t size : {64, 512, 4096}) {
    for (int64_t permille : {0, 5, 50, 500}) {
      b->Args({size, permille});
    }
  }
}

BENCHMARK(Fig10ReadPlusSw)->Apply(FailureArgs)->Iterations(1);
BENCHMARK(Fig10Strom)->Apply(FailureArgs)->Iterations(1);

}  // namespace
}  // namespace strom
