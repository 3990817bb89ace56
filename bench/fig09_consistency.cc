// Figure 9: median latency of reading a remote CRC64-versioned object
// (64 B - 4 KiB, checksum included) three ways:
//   * READ      — plain RDMA READ, no verification,
//   * READ+SW   — RDMA READ + CRC64 verification on the local CPU,
//   * StRoM     — the consistency kernel verifies on the remote NIC.
// Expected shape: SW verification adds up to ~40% at large objects; StRoM
// adds ~1 us (< 8%).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/kernels/consistency.h"
#include "src/kvs/versioned_object.h"
#include "src/sim/task.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;
constexpr int kReads = 100;

struct ObjectBed {
  explicit ObjectBed(uint32_t object_size) : bed(Profile10G()) {
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
    STROM_CHECK(store->WriteObject(0, 31).ok());
  }

  Testbed bed;
  std::optional<VersionedObjectStore> store;
  VirtAddr resp = 0;
  VirtAddr local = 0;
};

enum class Mode { kPlainRead, kReadPlusSw, kStrom };

LatencyStats Run(Mode mode, uint32_t object_size) {
  ObjectBed tb(object_size);
  LatencyStats stats;
  bool finished = false;
  struct Ctx {
    ObjectBed& tb;
    Mode mode;
    uint32_t size;
    LatencyStats* stats;
    bool* finished;
  };
  auto reader = [](Ctx c) -> Task {
    RoceDriver& drv = c.tb.bed.node(0).driver();
    const VirtAddr obj = c.tb.store->ObjectAddr(0);
    for (int i = 0; i < kReads; ++i) {
      const SimTime start = c.tb.bed.sim().now();
      switch (c.mode) {
        case Mode::kPlainRead: {
          auto read = drv.Read(kQp, c.tb.local, obj, c.size);
          Status st = co_await read;
          STROM_CHECK(st.ok()) << st;
          break;
        }
        case Mode::kReadPlusSw: {
          auto read = drv.Read(kQp, c.tb.local, obj, c.size);
          Status st = co_await read;
          STROM_CHECK(st.ok()) << st;
          // CRC64 verification on the requesting CPU (Pilaf style).
          co_await Delay(c.tb.bed.sim(), c.tb.bed.node(0).cpu().Crc64Time(c.size - 8));
          ByteBuffer object = *drv.ReadHost(c.tb.local, c.size);
          STROM_CHECK(VersionedObjectStore::IsConsistent(object));
          break;
        }
        case Mode::kStrom: {
          drv.WriteHostU64(c.tb.resp + c.size, 0);
          ConsistencyParams params;
          params.target_addr = c.tb.resp;
          params.remote_addr = obj;
          params.length = c.size;
          drv.PostRpc(kConsistencyRpcOpcode, kQp, params.Encode(), bench::CheckWrite);
          auto poll = drv.PollU64(c.tb.resp + c.size, 0);
          const uint64_t status = co_await poll;
          STROM_CHECK(StatusWordCode(status) == KernelStatusCode::kOk);
          break;
        }
      }
      c.stats->Add(c.tb.bed.sim().now() - start);
    }
    *c.finished = true;
  };
  tb.bed.sim().Spawn(reader(Ctx{tb, mode, object_size, &stats, &finished}));
  bench::RunUntilDone(tb.bed.sim(), "the consistent reads", [&] { return finished; });
  return stats;
}

void Fig9Read(benchmark::State& state) {
  for (auto _ : state) {
    bench::ReportLatency(state, __func__, Run(Mode::kPlainRead, static_cast<uint32_t>(state.range(0))),
                         {{"object_B", static_cast<double>(state.range(0))}});
  }
}
void Fig9ReadPlusSw(benchmark::State& state) {
  for (auto _ : state) {
    bench::ReportLatency(state, __func__, Run(Mode::kReadPlusSw, static_cast<uint32_t>(state.range(0))),
                         {{"object_B", static_cast<double>(state.range(0))}});
  }
}
void Fig9Strom(benchmark::State& state) {
  for (auto _ : state) {
    bench::ReportLatency(state, __func__, Run(Mode::kStrom, static_cast<uint32_t>(state.range(0))),
                         {{"object_B", static_cast<double>(state.range(0))}});
  }
}

BENCHMARK(Fig9Read)->RangeMultiplier(2)->Range(64, 4096)->Iterations(1);
BENCHMARK(Fig9ReadPlusSw)->RangeMultiplier(2)->Range(64, 4096)->Iterations(1);
BENCHMARK(Fig9Strom)->RangeMultiplier(2)->Range(64, 4096)->Iterations(1);

}  // namespace
}  // namespace strom
