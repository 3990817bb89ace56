// Figure 7: traversing a remote linked list (value size 64 B) with three
// approaches, list length 4 - 32:
//   * RDMA READ   — one network round trip per element (Pilaf/FaRM style),
//   * StRoM       — the traversal kernel: one round trip + PCIe reads,
//   * TCP RPC     — rpcgen-style RPC, remote CPU walks the list.
// Expected shape: READ linear in list length, StRoM sublinear, TCP flat.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/kernels/traversal.h"
#include "src/kvs/linked_list.h"
#include "src/sim/task.h"
#include "src/tcp/rpc.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;
constexpr uint32_t kValueSize = 64;
constexpr int kLookups = 100;
constexpr uint16_t kRpcPort = 9000;

struct ListBed {
  explicit ListBed(int length)
      : bed(Profile10G()), keys(MakeKeys(length)) {
    bed.ConnectQp(0, kQp, 1, kQp);
    const KernelConfig kc{bed.profile().roce.clock_ps, bed.profile().roce.data_width};
    STROM_CHECK(
        bed.node(1).engine().DeployKernel(std::make_unique<TraversalKernel>(bed.node(1).sim(), kc)).ok());
    resp = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
    local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
    const VirtAddr elems = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
    const VirtAddr values = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
    list.emplace(*RemoteLinkedList::Build(bed.node(1).driver(), elems, values, keys,
                                          kValueSize, 17));
  }

  static std::vector<uint64_t> MakeKeys(int length) {
    std::vector<uint64_t> keys;
    for (int i = 1; i <= length; ++i) {
      keys.push_back(static_cast<uint64_t>(i) * 1000);
    }
    return keys;
  }

  uint64_t RandomKey(Rng& rng) const { return keys[rng.Below(keys.size())]; }

  Testbed bed;
  std::vector<uint64_t> keys;
  std::optional<RemoteLinkedList> list;
  VirtAddr resp = 0;
  VirtAddr local = 0;
};

// --- approach 1: conventional one-sided RDMA READ walk ---------------------
LatencyStats RunRdmaRead(int length) {
  ListBed tb(length);
  LatencyStats stats;
  bool finished = false;
  struct Ctx {
    ListBed& tb;
    LatencyStats* stats;
    bool* finished;
  };
  auto walker = [](Ctx c) -> Task {
    RoceDriver& drv = c.tb.bed.node(0).driver();
    Rng rng(1);
    for (int i = 0; i < kLookups; ++i) {
      const uint64_t key = c.tb.RandomKey(rng);
      const SimTime start = c.tb.bed.sim().now();
      VirtAddr elem_addr = c.tb.list->head();
      while (true) {
        auto read = drv.Read(kQp, c.tb.local, elem_addr, kTraversalElementSize);
        Status st = co_await read;
        STROM_CHECK(st.ok()) << st;
        ByteBuffer elem = *drv.ReadHost(c.tb.local, kTraversalElementSize);
        if (LoadLe64(elem.data()) == key) {
          const VirtAddr value_ptr = LoadLe64(elem.data() + 4 * 8);
          auto vread = drv.Read(kQp, c.tb.local + 64, value_ptr, kValueSize);
          st = co_await vread;
          STROM_CHECK(st.ok()) << st;
          break;
        }
        elem_addr = LoadLe64(elem.data() + 2 * 8);
        STROM_CHECK_NE(elem_addr, 0u) << "key must exist";
      }
      c.stats->Add(c.tb.bed.sim().now() - start);
    }
    *c.finished = true;
  };
  tb.bed.sim().Spawn(walker(Ctx{tb, &stats, &finished}));
  bench::RunUntilDone(tb.bed.sim(), "the RDMA READ walks", [&] { return finished; });
  return stats;
}

// --- approach 2: StRoM traversal kernel -------------------------------------
LatencyStats RunStrom(int length) {
  ListBed tb(length);
  LatencyStats stats;
  bool finished = false;
  struct Ctx {
    ListBed& tb;
    LatencyStats* stats;
    bool* finished;
  };
  auto lookup = [](Ctx c) -> Task {
    RoceDriver& drv = c.tb.bed.node(0).driver();
    Rng rng(1);
    for (int i = 0; i < kLookups; ++i) {
      const uint64_t key = c.tb.RandomKey(rng);
      drv.FillHost(c.tb.resp, kValueSize + 8, 0);
      const SimTime start = c.tb.bed.sim().now();
      drv.PostRpc(kTraversalRpcOpcode, kQp,
                  c.tb.list->LookupParams(key, c.tb.resp).Encode(), bench::CheckWrite);
      auto poll = drv.PollU64(c.tb.resp + kValueSize, 0);
      const uint64_t status = co_await poll;
      STROM_CHECK(StatusWordCode(status) == KernelStatusCode::kOk);
      c.stats->Add(c.tb.bed.sim().now() - start);
    }
    *c.finished = true;
  };
  tb.bed.sim().Spawn(lookup(Ctx{tb, &stats, &finished}));
  bench::RunUntilDone(tb.bed.sim(), "the StRoM lookups", [&] { return finished; });
  return stats;
}

// --- approach 3: TCP-based RPC, remote CPU walks the list -------------------
LatencyStats RunTcpRpc(int length) {
  ListBed tb(length);
  Node& server = tb.bed.node(1);

  // The server walks the in-memory list: one dependent DRAM access per
  // element, then copies the value out.
  RpcServer rpc_server(
      server.tcp(), kRpcPort,
      [&](uint32_t, ByteSpan request, SimTime* compute) -> ByteBuffer {
        const uint64_t key = LoadLe64(request.data());
        VirtAddr addr = tb.list->head();
        while (addr != 0) {
          *compute += server.cpu().DramAccess();
          ByteBuffer elem = *server.driver().ReadHost(addr, kTraversalElementSize);
          if (LoadLe64(elem.data()) == key) {
            const VirtAddr value_ptr = LoadLe64(elem.data() + 4 * 8);
            *compute += server.cpu().MemcpyTime(kValueSize);
            return *server.driver().ReadHost(value_ptr, kValueSize);
          }
          addr = LoadLe64(elem.data() + 2 * 8);
        }
        return ByteBuffer{};
      });

  LatencyStats stats;
  bool finished = false;
  auto client = std::make_unique<RpcClient>(tb.bed.node(0).tcp(), server.ip(), kRpcPort);
  struct Ctx {
    ListBed& tb;
    RpcClient& client;
    LatencyStats* stats;
    bool* finished;
  };
  auto lookup = [](Ctx c) -> Task {
    Rng rng(1);
    {
      // Warm up the connection (3-way handshake) outside the measurement.
      ByteBuffer req(8, 0);
      StoreLe64(req.data(), c.tb.keys[0]);
      auto warm = c.client.Call(1, std::move(req));
      co_await warm;
    }
    for (int i = 0; i < kLookups; ++i) {
      ByteBuffer req(8, 0);
      StoreLe64(req.data(), c.tb.RandomKey(rng));
      const SimTime start = c.tb.bed.sim().now();
      auto call = c.client.Call(1, std::move(req));
      ByteBuffer value = co_await call;
      STROM_CHECK_EQ(value.size(), kValueSize);
      c.stats->Add(c.tb.bed.sim().now() - start);
    }
    *c.finished = true;
  };
  tb.bed.sim().Spawn(lookup(Ctx{tb, *client, &stats, &finished}));
  bench::RunUntilDone(tb.bed.sim(), "the TCP RPC lookups", [&] { return finished; });
  return stats;
}

void Fig7RdmaRead(benchmark::State& state) {
  for (auto _ : state) {
    bench::ReportLatency(state, __func__, RunRdmaRead(static_cast<int>(state.range(0))),
                         {{"list_length", static_cast<double>(state.range(0))}});
  }
}
void Fig7Strom(benchmark::State& state) {
  for (auto _ : state) {
    bench::ReportLatency(state, __func__, RunStrom(static_cast<int>(state.range(0))),
                         {{"list_length", static_cast<double>(state.range(0))}});
  }
}
void Fig7TcpRpc(benchmark::State& state) {
  for (auto _ : state) {
    bench::ReportLatency(state, __func__, RunTcpRpc(static_cast<int>(state.range(0))),
                         {{"list_length", static_cast<double>(state.range(0))}});
  }
}

BENCHMARK(Fig7RdmaRead)->RangeMultiplier(2)->Range(4, 32)->Iterations(1);
BENCHMARK(Fig7Strom)->RangeMultiplier(2)->Range(4, 32)->Iterations(1);
BENCHMARK(Fig7TcpRpc)->RangeMultiplier(2)->Range(4, 32)->Iterations(1);

}  // namespace
}  // namespace strom
