// Distributed data shuffling example (paper §6.4) on a 3-host single-switch
// Fabric: a producer node streams 8 B tuples to two consumer nodes
// (tuples routed by their top bit), and each consumer's NIC-resident shuffle
// kernel radix-partitions its share into cache-sized partitions on the fly —
// the CPU-side partitioning pass of a distributed join disappears.
//
//   $ ./shuffle_pipeline
#include <cstdio>

#include "src/fabric/fabric.h"
#include "src/kernels/shuffle.h"
#include "src/sim/task.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

constexpr uint32_t kPartitionBits = 6;  // 64 cache-sized partitions per consumer
constexpr uint32_t kNumPartitions = 1u << kPartitionBits;
constexpr size_t kTuplesTotal = 400'000;
constexpr uint64_t kStride = KiB(512);

struct Consumer {
  int node_index;
  Qpn qpn;
  VirtAddr dest = 0;
  VirtAddr resp = 0;  // status word lands back at the producer
};

Task Produce(Fabric& bed, std::vector<Consumer>& consumers,
             const std::vector<uint64_t>& tuples, bool* done) {
  RoceDriver& drv = bed.node(0).driver();

  // Split the stream by the tuples' top bit and stage each consumer's share
  // in producer memory.
  std::vector<std::vector<uint64_t>> shares(consumers.size());
  for (uint64_t t : tuples) {
    shares[t >> 63].push_back(t);
  }
  std::vector<VirtAddr> staged(consumers.size());
  for (size_t i = 0; i < consumers.size(); ++i) {
    ByteBuffer bytes = TuplesToBytes(shares[i]);
    staged[i] = drv.AllocBuffer(bytes.size() + kHugePageSize)->addr;
    STROM_CHECK(drv.WriteHost(staged[i], bytes).ok());
  }

  const SimTime start = bed.sim().now();
  // Configure each consumer's shuffle kernel, then stream both shares.
  for (size_t i = 0; i < consumers.size(); ++i) {
    Consumer& c = consumers[i];
    drv.WriteHostU64(c.resp, 0);
    ShuffleParams config;
    config.target_addr = c.resp;
    config.partition_bits = kPartitionBits;
    config.region_base = c.dest;
    config.region_stride = kStride;
    drv.PostRpc(kShuffleRpcOpcode, c.qpn, config.Encode());
    drv.PostRpcWrite(kShuffleRpcOpcode, c.qpn, staged[i],
                     static_cast<uint32_t>(shares[i].size() * 8));
  }
  for (Consumer& c : consumers) {
    auto poll = drv.PollU64(c.resp, 0);
    const uint64_t status = co_await poll;
    std::printf("consumer node %d: %u tuples partitioned (status %s)\n", c.node_index,
                StatusWordExtra(status),
                StatusWordCode(status) == KernelStatusCode::kOk ? "OK" : "FAIL");
  }
  std::printf("shuffle of %zu tuples across 2 consumers took %.2f ms of simulated time\n",
              kTuplesTotal, ToUs(bed.sim().now() - start) / 1000.0);
  *done = true;
}

}  // namespace
}  // namespace strom

int main() {
  using namespace strom;
  FabricTopologyConfig topo;
  topo.num_hosts = 3;
  Fabric bed(Profile10G(), topo);

  std::vector<Consumer> consumers = {{1, 1}, {2, 2}};
  const KernelConfig kc{bed.profile().roce.clock_ps, bed.profile().roce.data_width};
  for (Consumer& c : consumers) {
    bed.ConnectQp(0, c.qpn, c.node_index, c.qpn);
    Status st = bed.node(c.node_index)
                    .engine()
                    .DeployKernel(std::make_unique<ShuffleKernel>(bed.sim(), kc));
    STROM_CHECK(st.ok()) << st;
    c.dest = bed.node(c.node_index)
                 .driver()
                 .AllocBuffer(kStride * kNumPartitions + kHugePageSize)
                 ->addr;
    c.resp = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  }

  std::vector<uint64_t> tuples = RandomTuples(kTuplesTotal, 2026);
  bool done = false;
  bed.sim().Spawn(Produce(bed, consumers, tuples, &done));
  bed.sim().RunUntil([&] { return done; });
  STROM_CHECK(done);
  bed.sim().RunUntilIdle();  // drain posted DMA writes before verification

  // Verify every tuple landed in the right partition of the right node.
  size_t verified = 0;
  std::vector<std::vector<std::vector<uint64_t>>> expected(
      consumers.size(), std::vector<std::vector<uint64_t>>(kNumPartitions));
  for (uint64_t t : tuples) {
    expected[t >> 63][RadixPartition(t, kPartitionBits)].push_back(t);
  }
  for (size_t ci = 0; ci < consumers.size(); ++ci) {
    RoceDriver& drv = bed.node(consumers[ci].node_index).driver();
    for (uint32_t p = 0; p < kNumPartitions; ++p) {
      const auto& exp = expected[ci][p];
      ByteBuffer region = *drv.ReadHost(consumers[ci].dest + p * kStride, exp.size() * 8);
      for (size_t i = 0; i < exp.size(); ++i) {
        STROM_CHECK_EQ(LoadLe64(region.data() + i * 8), exp[i]);
        ++verified;
      }
    }
  }
  std::printf("verified placement of %zu/%zu tuples\n", verified, kTuplesTotal);
  return 0;
}
