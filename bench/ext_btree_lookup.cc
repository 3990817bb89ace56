// Extension bench (paper §6.2 prose): "More complex data structures, such as
// B-trees or graphs, would require even more round trips per operation and
// are therefore commonly implemented with an RPC over two-sided RDMA."
// Compares point lookups in a remote B-tree (fan-out 4) across tree sizes:
//   * RDMA READ — one network round trip per level,
//   * StRoM     — two-phase traversal kernel: one round trip + PCIe reads,
//   * TCP RPC   — remote CPU descends at DRAM latency.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/kernels/traversal.h"
#include "src/kvs/btree.h"
#include "src/sim/task.h"
#include "src/tcp/rpc.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;
constexpr uint32_t kValueSize = 64;
constexpr int kLookups = 60;
constexpr uint16_t kRpcPort = 9300;

struct TreeBed {
  explicit TreeBed(int num_keys) : bed(Profile10G()) {
    bed.ConnectQp(0, kQp, 1, kQp);
    const KernelConfig kc{bed.profile().roce.clock_ps, bed.profile().roce.data_width};
    STROM_CHECK(
        bed.node(1).engine().DeployKernel(std::make_unique<TraversalKernel>(bed.node(1).sim(), kc)).ok());
    resp = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
    local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
    std::vector<uint64_t> keys;
    for (int k = 1; k <= num_keys; ++k) {
      keys.push_back(static_cast<uint64_t>(k) * 7);
    }
    tree.emplace(*RemoteBTree::Build(bed.node(1).driver(), keys, kValueSize, 11));
  }

  Testbed bed;
  std::optional<RemoteBTree> tree;
  VirtAddr resp = 0;
  VirtAddr local = 0;
};

LatencyStats RunStrom(int num_keys) {
  TreeBed tb(num_keys);
  LatencyStats stats;
  Rng rng(1);
  for (int i = 0; i < kLookups; ++i) {
    const uint64_t key = tb.tree->keys()[rng.Below(tb.tree->keys().size())];
    tb.bed.node(0).driver().FillHost(tb.resp, kValueSize + 8, 0);
    const SimTime start = tb.bed.sim().now();
    tb.bed.node(0).driver().PostRpc(kTraversalRpcOpcode, kQp,
                                    tb.tree->LookupParams(key, tb.resp).Encode());
    bench::RunUntilDone(tb.bed.sim(), "the StRoM lookup", [&] {
      return tb.bed.node(0).driver().ReadHostU64(tb.resp + kValueSize) != 0;
    });
    stats.Add(tb.bed.sim().now() - start);
  }
  return stats;
}

LatencyStats RunRdmaRead(int num_keys) {
  TreeBed tb(num_keys);
  LatencyStats stats;
  bool finished = false;
  struct Ctx {
    TreeBed& tb;
    LatencyStats* stats;
    bool* finished;
  };
  auto walker = [](Ctx c) -> Task {
    RoceDriver& drv = c.tb.bed.node(0).driver();
    Rng rng(1);
    for (int i = 0; i < kLookups; ++i) {
      const uint64_t key = c.tb.tree->keys()[rng.Below(c.tb.tree->keys().size())];
      const SimTime start = c.tb.bed.sim().now();
      VirtAddr addr = c.tb.tree->root();
      // One network READ per level.
      for (uint32_t level = 0; level < c.tb.tree->height(); ++level) {
        auto read = drv.Read(kQp, c.tb.local, addr, kTraversalElementSize);
        Status st = co_await read;
        STROM_CHECK(st.ok()) << st;
        ByteBuffer node = *drv.ReadHost(c.tb.local, kTraversalElementSize);
        VirtAddr child = 0;
        for (size_t j = 0; j < 3; ++j) {
          const uint64_t sep = LoadLe64(node.data() + j * 8);
          if (sep != 0 && sep > key) {
            child = LoadLe64(node.data() + (3 + j) * 8);
            break;
          }
        }
        addr = child != 0 ? child : LoadLe64(node.data() + 6 * 8);
      }
      // Leaf + value.
      auto leaf_read = drv.Read(kQp, c.tb.local, addr, kTraversalElementSize);
      Status st = co_await leaf_read;
      STROM_CHECK(st.ok()) << st;
      ByteBuffer leaf = *drv.ReadHost(c.tb.local, kTraversalElementSize);
      VirtAddr value_ptr = 0;
      for (size_t j = 0; j < 3; ++j) {
        if (LoadLe64(leaf.data() + j * 16) == key) {
          value_ptr = LoadLe64(leaf.data() + j * 16 + 8);
          break;
        }
      }
      STROM_CHECK_NE(value_ptr, 0u);
      auto value_read = drv.Read(kQp, c.tb.local + 64, value_ptr, kValueSize);
      st = co_await value_read;
      STROM_CHECK(st.ok()) << st;
      c.stats->Add(c.tb.bed.sim().now() - start);
    }
    *c.finished = true;
  };
  tb.bed.sim().Spawn(walker(Ctx{tb, &stats, &finished}));
  bench::RunUntilDone(tb.bed.sim(), "the RDMA READ descents", [&] { return finished; });
  return stats;
}

LatencyStats RunTcpRpc(int num_keys) {
  TreeBed tb(num_keys);
  Node& server = tb.bed.node(1);
  RpcServer rpc_server(server.tcp(), kRpcPort,
                       [&](uint32_t, ByteSpan request, SimTime* compute) -> ByteBuffer {
                         const uint64_t key = LoadLe64(request.data());
                         // One dependent DRAM access per level + the leaf.
                         *compute += (tb.tree->height() + 1) * server.cpu().DramAccess();
                         Result<VirtAddr> ptr = tb.tree->HostLookup(key);
                         STROM_CHECK(ptr.ok());
                         *compute += server.cpu().MemcpyTime(kValueSize);
                         return *server.driver().ReadHost(*ptr, kValueSize);
                       });
  LatencyStats stats;
  bool finished = false;
  auto client = std::make_unique<RpcClient>(tb.bed.node(0).tcp(), server.ip(), kRpcPort);
  struct Ctx {
    TreeBed& tb;
    RpcClient& client;
    LatencyStats* stats;
    bool* finished;
  };
  auto looker = [](Ctx c) -> Task {
    Rng rng(1);
    {
      ByteBuffer warm(8, 0);
      StoreLe64(warm.data(), c.tb.tree->keys()[0]);
      auto call = c.client.Call(1, std::move(warm));
      co_await call;
    }
    for (int i = 0; i < kLookups; ++i) {
      ByteBuffer req(8, 0);
      StoreLe64(req.data(), c.tb.tree->keys()[rng.Below(c.tb.tree->keys().size())]);
      const SimTime start = c.tb.bed.sim().now();
      auto call = c.client.Call(1, std::move(req));
      ByteBuffer value = co_await call;
      STROM_CHECK_EQ(value.size(), kValueSize);
      c.stats->Add(c.tb.bed.sim().now() - start);
    }
    *c.finished = true;
  };
  tb.bed.sim().Spawn(looker(Ctx{tb, *client, &stats, &finished}));
  bench::RunUntilDone(tb.bed.sim(), "the TCP RPC lookups", [&] { return finished; });
  return stats;
}

void ReportWithHeight(benchmark::State& state, const char* name, const LatencyStats& stats,
                      int num_keys) {
  // Height of a fan-out-4 tree over ceil(n/3) leaves.
  int leaves = (num_keys + 2) / 3;
  int height = 0;
  while (leaves > 1) {
    leaves = (leaves + 3) / 4;
    ++height;
  }
  bench::ReportLatency(state, name, stats, {{"num_keys", static_cast<double>(num_keys)},
                                      {"tree_height", static_cast<double>(height)}});
}

void ExtBTreeStrom(benchmark::State& state) {
  for (auto _ : state) {
    ReportWithHeight(state, __func__, RunStrom(static_cast<int>(state.range(0))),
                     static_cast<int>(state.range(0)));
  }
}
void ExtBTreeRdmaRead(benchmark::State& state) {
  for (auto _ : state) {
    ReportWithHeight(state, __func__, RunRdmaRead(static_cast<int>(state.range(0))),
                     static_cast<int>(state.range(0)));
  }
}
void ExtBTreeTcpRpc(benchmark::State& state) {
  for (auto _ : state) {
    ReportWithHeight(state, __func__, RunTcpRpc(static_cast<int>(state.range(0))),
                     static_cast<int>(state.range(0)));
  }
}

BENCHMARK(ExtBTreeStrom)->Arg(12)->Arg(100)->Arg(1000)->Arg(10000)->Iterations(1);
BENCHMARK(ExtBTreeRdmaRead)->Arg(12)->Arg(100)->Arg(1000)->Arg(10000)->Iterations(1);
BENCHMARK(ExtBTreeTcpRpc)->Arg(12)->Arg(100)->Arg(1000)->Arg(10000)->Iterations(1);

}  // namespace
}  // namespace strom
