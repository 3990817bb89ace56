// Figure 8: remote (Pilaf-layout) hash table GET latency while varying the
// value size 64 B - 4 KiB, three approaches:
//   * RDMA READ — best case two round trips (entry, then value),
//   * StRoM     — the traversal kernel resolves the GET in one round trip,
//   * TCP RPC   — remote CPU performs the lookup.
// The paper assumes the entry always matches (no chaining on this path).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/kernels/traversal.h"
#include "src/kvs/hash_table.h"
#include "src/sim/task.h"
#include "src/tcp/rpc.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;
constexpr int kLookups = 100;
constexpr uint32_t kNumKeys = 64;
constexpr uint16_t kRpcPort = 9000;

struct TableBed {
  explicit TableBed(uint32_t value_size) : bed(Profile10G()) {
    bed.ConnectQp(0, kQp, 1, kQp);
    const KernelConfig kc{bed.profile().roce.clock_ps, bed.profile().roce.data_width};
    STROM_CHECK(
        bed.node(1).engine().DeployKernel(std::make_unique<TraversalKernel>(bed.node(1).sim(), kc)).ok());
    resp = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
    local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
    // Large table relative to the key count: effectively no chains, so every
    // GET is the paper's best case.
    table.emplace(*RemoteHashTable::Create(bed.node(1).driver(), 4096, value_size, kNumKeys * 2));
    for (uint64_t k = 1; k <= kNumKeys; ++k) {
      STROM_CHECK(table->Put(k, 23).ok());
    }
  }

  Testbed bed;
  std::optional<RemoteHashTable> table;
  VirtAddr resp = 0;
  VirtAddr local = 0;
};

LatencyStats RunRdmaRead(uint32_t value_size) {
  TableBed tb(value_size);
  LatencyStats stats;
  bool finished = false;
  struct Ctx {
    TableBed& tb;
    uint32_t value_size;
    LatencyStats* stats;
    bool* finished;
  };
  auto getter = [](Ctx c) -> Task {
    RoceDriver& drv = c.tb.bed.node(0).driver();
    Rng rng(2);
    for (int i = 0; i < kLookups; ++i) {
      const uint64_t key = 1 + rng.Below(kNumKeys);
      const SimTime start = c.tb.bed.sim().now();
      // Round trip 1: the hash table entry.
      auto read1 = drv.Read(kQp, c.tb.local, c.tb.table->EntryAddrFor(key),
                            kTraversalElementSize);
      Status st = co_await read1;
      STROM_CHECK(st.ok()) << st;
      ByteBuffer entry = *drv.ReadHost(c.tb.local, kTraversalElementSize);
      VirtAddr value_ptr = 0;
      for (size_t slot = 0; slot < 6; slot += 2) {
        if (LoadLe64(entry.data() + slot * 8) == key) {
          value_ptr = LoadLe64(entry.data() + (slot + 1) * 8);
          break;
        }
      }
      STROM_CHECK_NE(value_ptr, 0u);
      // Round trip 2: the value.
      auto read2 = drv.Read(kQp, c.tb.local + 64, value_ptr, c.value_size);
      st = co_await read2;
      STROM_CHECK(st.ok()) << st;
      c.stats->Add(c.tb.bed.sim().now() - start);
    }
    *c.finished = true;
  };
  tb.bed.sim().Spawn(getter(Ctx{tb, value_size, &stats, &finished}));
  bench::RunUntilDone(tb.bed.sim(), "the RDMA READ GETs", [&] { return finished; });
  return stats;
}

LatencyStats RunStrom(uint32_t value_size) {
  TableBed tb(value_size);
  LatencyStats stats;
  bool finished = false;
  struct Ctx {
    TableBed& tb;
    uint32_t value_size;
    LatencyStats* stats;
    bool* finished;
  };
  auto getter = [](Ctx c) -> Task {
    RoceDriver& drv = c.tb.bed.node(0).driver();
    Rng rng(2);
    for (int i = 0; i < kLookups; ++i) {
      const uint64_t key = 1 + rng.Below(kNumKeys);
      drv.WriteHostU64(c.tb.resp + c.value_size, 0);
      const SimTime start = c.tb.bed.sim().now();
      drv.PostRpc(kTraversalRpcOpcode, kQp,
                  c.tb.table->LookupParams(key, c.tb.resp).Encode(), bench::CheckWrite);
      auto poll = drv.PollU64(c.tb.resp + c.value_size, 0);
      const uint64_t status = co_await poll;
      STROM_CHECK(StatusWordCode(status) == KernelStatusCode::kOk);
      c.stats->Add(c.tb.bed.sim().now() - start);
    }
    *c.finished = true;
  };
  tb.bed.sim().Spawn(getter(Ctx{tb, value_size, &stats, &finished}));
  // A crash in a --fault-plan can kill the responder's kernel after it
  // acknowledged the RPC: no completion fails, and the response the poll
  // waits for never comes. The parked poll then lets the queue go idle.
  bench::RunUntilDone(tb.bed.sim(), "the StRoM GETs", [&] { return finished; });
  return stats;
}

LatencyStats RunTcpRpc(uint32_t value_size) {
  TableBed tb(value_size);
  Node& server = tb.bed.node(1);
  RpcServer rpc_server(server.tcp(), kRpcPort,
                       [&](uint32_t, ByteSpan request, SimTime* compute) -> ByteBuffer {
                         const uint64_t key = LoadLe64(request.data());
                         *compute += 2 * server.cpu().DramAccess();  // entry + value touch
                         Result<VirtAddr> ptr = tb.table->HostLookup(key);
                         STROM_CHECK(ptr.ok());
                         *compute += server.cpu().MemcpyTime(value_size);
                         return *server.driver().ReadHost(*ptr, value_size);
                       });

  LatencyStats stats;
  bool finished = false;
  auto client = std::make_unique<RpcClient>(tb.bed.node(0).tcp(), server.ip(), kRpcPort);
  struct Ctx {
    TableBed& tb;
    RpcClient& client;
    uint32_t value_size;
    LatencyStats* stats;
    bool* finished;
  };
  auto getter = [](Ctx c) -> Task {
    Rng rng(2);
    {
      ByteBuffer warm_req(8, 0);
      StoreLe64(warm_req.data(), 1);
      auto warm = c.client.Call(1, std::move(warm_req));
      co_await warm;
    }
    for (int i = 0; i < kLookups; ++i) {
      ByteBuffer req(8, 0);
      StoreLe64(req.data(), 1 + rng.Below(kNumKeys));
      const SimTime start = c.tb.bed.sim().now();
      auto call = c.client.Call(1, std::move(req));
      ByteBuffer value = co_await call;
      STROM_CHECK_EQ(value.size(), c.value_size);
      c.stats->Add(c.tb.bed.sim().now() - start);
    }
    *c.finished = true;
  };
  tb.bed.sim().Spawn(getter(Ctx{tb, *client, value_size, &stats, &finished}));
  bench::RunUntilDone(tb.bed.sim(), "the TCP RPC GETs", [&] { return finished; });
  return stats;
}

void Fig8RdmaRead(benchmark::State& state) {
  for (auto _ : state) {
    bench::ReportLatency(state, __func__, RunRdmaRead(static_cast<uint32_t>(state.range(0))),
                         {{"value_B", static_cast<double>(state.range(0))}});
  }
}
void Fig8Strom(benchmark::State& state) {
  for (auto _ : state) {
    bench::ReportLatency(state, __func__, RunStrom(static_cast<uint32_t>(state.range(0))),
                         {{"value_B", static_cast<double>(state.range(0))}});
  }
}
void Fig8TcpRpc(benchmark::State& state) {
  for (auto _ : state) {
    bench::ReportLatency(state, __func__, RunTcpRpc(static_cast<uint32_t>(state.range(0))),
                         {{"value_B", static_cast<double>(state.range(0))}});
  }
}

BENCHMARK(Fig8RdmaRead)->RangeMultiplier(2)->Range(64, 4096)->Iterations(1);
BENCHMARK(Fig8Strom)->RangeMultiplier(2)->Range(64, 4096)->Iterations(1);
BENCHMARK(Fig8TcpRpc)->RangeMultiplier(2)->Range(64, 4096)->Iterations(1);

}  // namespace
}  // namespace strom
