// Distributed key-value store example (paper §6.2/§6.3): a client node
// serves GETs from a remote Pilaf-style hash table three ways and compares
// them, then reads CRC64-versioned objects with NIC-side consistency
// verification while a writer keeps tearing them.
//
//   $ ./kv_store
#include <cstdio>

#include "src/kernels/consistency.h"
#include "src/kernels/traversal.h"
#include "src/kvs/hash_table.h"
#include "src/kvs/versioned_object.h"
#include "src/sim/task.h"
#include "src/tcp/rpc.h"
#include "src/testbed/stats.h"
#include "src/testbed/testbed.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;
constexpr uint32_t kValueSize = 512;
constexpr uint32_t kNumKeys = 2000;
constexpr int kGets = 200;
constexpr uint16_t kRpcPort = 9100;

struct Deployment {
  Deployment() : bed(Profile10G()) {
    bed.ConnectQp(0, kQp, 1, kQp);
    const KernelConfig kc{bed.profile().roce.clock_ps, bed.profile().roce.data_width};
    STROM_CHECK(
        bed.node(1).engine().DeployKernel(std::make_unique<TraversalKernel>(bed.sim(), kc)).ok());
    STROM_CHECK(bed.node(1)
                    .engine()
                    .DeployKernel(std::make_unique<ConsistencyKernel>(bed.sim(), kc))
                    .ok());
    resp = bed.node(0).driver().AllocBuffer(MiB(2))->addr;
    scratch = bed.node(0).driver().AllocBuffer(MiB(2))->addr;

    table.emplace(*RemoteHashTable::Create(bed.node(1).driver(), 1024, kValueSize,
                                           kNumKeys + 64));
    for (uint64_t k = 1; k <= kNumKeys; ++k) {
      STROM_CHECK(table->Put(k, 77).ok());
    }
    std::printf("populated remote hash table: %u keys, %u B values, %llu chained entries\n",
                kNumKeys, kValueSize, static_cast<unsigned long long>(table->chained_entries()));
  }

  Testbed bed;
  std::optional<RemoteHashTable> table;
  VirtAddr resp = 0;
  VirtAddr scratch = 0;
};

Task GetViaStrom(Deployment& d, LatencyStats* stats, bool* done) {
  RoceDriver& drv = d.bed.node(0).driver();
  Rng rng(1);
  int hits = 0;
  for (int i = 0; i < kGets; ++i) {
    const uint64_t key = 1 + rng.Below(kNumKeys);
    drv.WriteHostU64(d.resp + kValueSize, 0);
    const SimTime start = d.bed.sim().now();
    drv.PostRpc(kTraversalRpcOpcode, kQp, d.table->LookupParams(key, d.resp).Encode());
    auto poll = drv.PollU64(d.resp + kValueSize, 0);
    const uint64_t status = co_await poll;
    stats->Add(d.bed.sim().now() - start);
    if (StatusWordCode(status) == KernelStatusCode::kOk &&
        *drv.ReadHost(d.resp, kValueSize) == d.table->ExpectedValue(key)) {
      ++hits;
    }
  }
  STROM_CHECK_EQ(hits, kGets);
  *done = true;
}

Task GetViaRead(Deployment& d, LatencyStats* stats, bool* done) {
  RoceDriver& drv = d.bed.node(0).driver();
  Rng rng(1);
  for (int i = 0; i < kGets; ++i) {
    const uint64_t key = 1 + rng.Below(kNumKeys);
    const SimTime start = d.bed.sim().now();
    VirtAddr entry_addr = d.table->EntryAddrFor(key);
    VirtAddr value_ptr = 0;
    while (value_ptr == 0 && entry_addr != 0) {  // chains cost extra round trips
      auto read = drv.Read(kQp, d.scratch, entry_addr, kTraversalElementSize);
      Status st = co_await read;
      STROM_CHECK(st.ok()) << st;
      ByteBuffer entry = *drv.ReadHost(d.scratch, kTraversalElementSize);
      for (size_t slot = 0; slot < 6; slot += 2) {
        if (LoadLe64(entry.data() + slot * 8) == key) {
          value_ptr = LoadLe64(entry.data() + (slot + 1) * 8);
          break;
        }
      }
      if (value_ptr == 0) {
        entry_addr = LoadLe64(entry.data() + RemoteHashTable::kChainSlot * 8);
      }
    }
    STROM_CHECK_NE(value_ptr, 0u);
    auto vread = drv.Read(kQp, d.scratch + 64, value_ptr, kValueSize);
    Status st = co_await vread;
    STROM_CHECK(st.ok()) << st;
    stats->Add(d.bed.sim().now() - start);
  }
  *done = true;
}

Task GetViaTcp(Deployment& d, RpcClient& client, LatencyStats* stats, bool* done) {
  Rng rng(1);
  {
    ByteBuffer warm_req(8, 0);
    StoreLe64(warm_req.data(), 1);
    auto warm = client.Call(1, std::move(warm_req));
    co_await warm;
  }
  for (int i = 0; i < kGets; ++i) {
    ByteBuffer req(8, 0);
    StoreLe64(req.data(), 1 + rng.Below(kNumKeys));
    const SimTime start = d.bed.sim().now();
    auto call = client.Call(1, std::move(req));
    ByteBuffer value = co_await call;
    STROM_CHECK_EQ(value.size(), kValueSize);
    stats->Add(d.bed.sim().now() - start);
  }
  *done = true;
}

Task ConsistentReads(Deployment& d, VersionedObjectStore& store, bool* done) {
  RoceDriver& drv = d.bed.node(0).driver();
  const uint32_t size = store.object_size();
  int retried = 0;
  for (int i = 0; i < 50; ++i) {
    // A concurrent writer tears the object on every 5th read; the kernel
    // retries over PCIe until the writer finishes.
    if (i % 5 == 0) {
      STROM_CHECK(store.TearObject(0, 1000 + i).ok());
      VersionedObjectStore* s = &store;
      d.bed.sim().Schedule(Us(4), [s] { STROM_CHECK(s->RepairObject(0).ok()); });
    }
    drv.WriteHostU64(d.resp + size, 0);
    ConsistencyParams params;
    params.target_addr = d.resp;
    params.remote_addr = store.ObjectAddr(0);
    params.length = size;
    drv.PostRpc(kConsistencyRpcOpcode, kQp, params.Encode());
    auto poll = drv.PollU64(d.resp + size, 0);
    const uint64_t status = co_await poll;
    STROM_CHECK(StatusWordCode(status) == KernelStatusCode::kOk);
    STROM_CHECK(VersionedObjectStore::IsConsistent(*drv.ReadHost(d.resp, size)));
    if (StatusWordIterations(status) > 1) {
      ++retried;
    }
  }
  std::printf("consistency kernel: 50/50 reads consistent, %d needed NIC-side retries\n",
              retried);
  *done = true;
}

void PrintStats(const char* label, const LatencyStats& stats) {
  std::printf("  %-22s median %6.2f us   p1 %6.2f us   p99 %6.2f us\n", label,
              ToUs(stats.Median()), ToUs(stats.P1()), ToUs(stats.P99()));
}

}  // namespace
}  // namespace strom

int main() {
  using namespace strom;
  Deployment d;
  Node& server = d.bed.node(1);

  RpcServer rpc_server(server.tcp(), kRpcPort,
                       [&](uint32_t, ByteSpan request, SimTime* compute) -> ByteBuffer {
                         const uint64_t key = LoadLe64(request.data());
                         *compute += 2 * server.cpu().DramAccess();
                         Result<VirtAddr> ptr = d.table->HostLookup(key);
                         STROM_CHECK(ptr.ok());
                         *compute += server.cpu().MemcpyTime(kValueSize);
                         return *server.driver().ReadHost(*ptr, kValueSize);
                       });
  RpcClient rpc_client(d.bed.node(0).tcp(), server.ip(), kRpcPort);

  LatencyStats strom_stats;
  LatencyStats read_stats;
  LatencyStats tcp_stats;
  bool s_done = false;
  bool r_done = false;
  bool t_done = false;

  d.bed.sim().Spawn(GetViaStrom(d, &strom_stats, &s_done));
  STROM_CHECK(d.bed.sim().RunUntil([&] { return s_done; })) << "StRoM GETs did not finish";
  d.bed.sim().Spawn(GetViaRead(d, &read_stats, &r_done));
  STROM_CHECK(d.bed.sim().RunUntil([&] { return r_done; })) << "READ GETs did not finish";
  d.bed.sim().Spawn(GetViaTcp(d, rpc_client, &tcp_stats, &t_done));
  STROM_CHECK(d.bed.sim().RunUntil([&] { return t_done; })) << "TCP GETs did not finish";

  std::printf("\nGET latency over %d random keys (%u B values):\n", kGets, kValueSize);
  PrintStats("StRoM traversal kernel", strom_stats);
  PrintStats("one-sided RDMA READ", read_stats);
  PrintStats("TCP RPC (remote CPU)", tcp_stats);

  const VirtAddr objects = server.driver().AllocBuffer(MiB(1))->addr;
  VersionedObjectStore store(server.driver(), objects, 1024);
  STROM_CHECK(store.WriteObject(0, 1).ok());
  bool c_done = false;
  d.bed.sim().Spawn(ConsistentReads(d, store, &c_done));
  STROM_CHECK(d.bed.sim().RunUntil([&] { return c_done; }))
      << "consistent reads did not finish";
  return 0;
}
