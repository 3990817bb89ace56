// Tests for the send-side shuffle kernel (paper §6.4 footnote 9): data
// partitioned among different queue pairs — and thus different remote
// machines — before transmission, with MTU-size per-target buffering.
#include <gtest/gtest.h>

#include "src/fabric/fabric.h"
#include "src/kernels/send_shuffle.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

// 3-host single-switch rack: host 0 holds the data and the kernel; hosts 1
// and 2 are the receivers, one QP each.
FabricTopologyConfig ThreeHosts() {
  FabricTopologyConfig topo;
  topo.num_hosts = 3;
  return topo;
}

class SendShuffleTest : public ::testing::Test {
 protected:
  SendShuffleTest() : bed_(Profile10G(), ThreeHosts()) {
    bed_.ConnectQp(0, 1, 1, 1);
    bed_.ConnectQp(0, 2, 2, 2);
    const KernelConfig kc{bed_.profile().roce.clock_ps, bed_.profile().roce.data_width};
    auto owned = std::make_unique<SendShuffleKernel>(bed_.sim(), kc);
    kernel_ = owned.get();
    EXPECT_TRUE(bed_.node(0).engine().DeployKernel(std::move(owned)).ok());

    source_ = bed_.node(0).driver().AllocBuffer(MiB(8))->addr;
    status_ = bed_.node(0).driver().AllocBuffer(MiB(1))->addr;
    dest1_ = bed_.node(1).driver().AllocBuffer(MiB(8))->addr;
    dest2_ = bed_.node(2).driver().AllocBuffer(MiB(8))->addr;
  }

  SendShuffleParams MakeParams(uint32_t length) {
    SendShuffleParams p;
    p.source_addr = source_;
    p.length = length;
    p.status_addr = status_;
    p.targets = {{1, dest1_}, {2, dest2_}};
    return p;
  }

  uint64_t RunToStatus() {
    bed_.node(0).driver().WriteHostU64(status_, 0);
    uint64_t status = 0;
    bed_.sim().RunUntil([&] {
      status = bed_.node(0).driver().ReadHostU64(status_);
      return status != 0;
    });
    EXPECT_NE(status, 0u) << "no completion word";
    bed_.sim().RunUntilIdle();
    return status;
  }

  Fabric bed_;
  SendShuffleKernel* kernel_ = nullptr;
  VirtAddr source_ = 0;
  VirtAddr status_ = 0;
  VirtAddr dest1_ = 0;
  VirtAddr dest2_ = 0;
};

TEST_F(SendShuffleTest, PartitionsTuplesAcrossTwoMachines) {
  const size_t n_tuples = 50'000;
  std::vector<uint64_t> tuples = RandomTuples(n_tuples, 31);
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(source_, TuplesToBytes(tuples)).ok());

  SendShuffleParams p = MakeParams(static_cast<uint32_t>(n_tuples * 8));
  bed_.node(0).driver().WriteHostU64(status_, 0);
  bed_.node(0).driver().PostLocalRpc(kSendShuffleRpcOpcode, 1, p.Encode());
  const uint64_t status = RunToStatus();

  EXPECT_EQ(StatusWordCode(status), KernelStatusCode::kOk);
  EXPECT_EQ(StatusWordExtra(status), n_tuples);
  EXPECT_EQ(kernel_->tuples_sent(), n_tuples);

  // Each machine must hold exactly its radix partition, in stream order.
  std::vector<std::vector<uint64_t>> expected(2);
  for (uint64_t t : tuples) {
    expected[RadixPartition(t, 1)].push_back(t);
  }
  const VirtAddr dests[2] = {dest1_, dest2_};
  for (int machine = 0; machine < 2; ++machine) {
    ByteBuffer region = *bed_.node(machine + 1)
                             .driver()
                             .ReadHost(dests[machine], expected[machine].size() * 8);
    for (size_t i = 0; i < expected[machine].size(); ++i) {
      ASSERT_EQ(LoadLe64(region.data() + i * 8), expected[machine][i])
          << "machine " << machine + 1 << " tuple " << i;
    }
  }
}

TEST_F(SendShuffleTest, UsesMtuSizedBuffers) {
  // Footnote 9: buffering "up to MTU size" — the kernel must not emit one
  // RDMA WRITE per tuple; full buffers carry ~1440 B each.
  const size_t n_tuples = 20'000;
  ASSERT_TRUE(bed_.node(0)
                  .driver()
                  .WriteHost(source_, TuplesToBytes(RandomTuples(n_tuples, 5)))
                  .ok());
  bed_.node(0).driver().PostLocalRpc(kSendShuffleRpcOpcode, 1,
                                     MakeParams(n_tuples * 8).Encode());
  RunToStatus();

  const uint64_t min_writes = n_tuples * 8 / kSendShuffleBufferBytes;
  EXPECT_GE(kernel_->writes_emitted(), min_writes);
  EXPECT_LE(kernel_->writes_emitted(), min_writes + 2 + 2);  // + final partials
}

TEST_F(SendShuffleTest, EmptyInputCompletesImmediately) {
  bed_.node(0).driver().PostLocalRpc(kSendShuffleRpcOpcode, 1, MakeParams(0).Encode());
  const uint64_t status = RunToStatus();
  EXPECT_EQ(StatusWordCode(status), KernelStatusCode::kOk);
  EXPECT_EQ(StatusWordExtra(status), 0u);
  EXPECT_EQ(kernel_->writes_emitted(), 0u);
}

TEST_F(SendShuffleTest, ParamsRoundTripAndValidation) {
  SendShuffleParams p = MakeParams(4096);
  auto decoded = SendShuffleParams::Decode(p.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->source_addr, p.source_addr);
  EXPECT_EQ(decoded->length, 4096u);
  EXPECT_EQ(decoded->status_addr, p.status_addr);
  ASSERT_EQ(decoded->targets.size(), 2u);
  EXPECT_EQ(decoded->targets[1].qpn, 2u);
  EXPECT_EQ(decoded->targets[1].remote_addr, dest2_);

  // Non-power-of-two target counts are rejected.
  SendShuffleParams bad = MakeParams(64);
  bad.targets.push_back({3, 0});
  EXPECT_FALSE(SendShuffleParams::Decode(bad.Encode()).has_value());
  // Unaligned length rejected.
  SendShuffleParams odd = MakeParams(63);
  EXPECT_FALSE(SendShuffleParams::Decode(odd.Encode()).has_value());
}

TEST_F(SendShuffleTest, RemoteInvocationAlsoWorks) {
  // The same kernel can be triggered from another machine: node 1 posts the
  // RPC over its QP to node 0's NIC.
  const size_t n_tuples = 5'000;
  std::vector<uint64_t> tuples = RandomTuples(n_tuples, 77);
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(source_, TuplesToBytes(tuples)).ok());

  bed_.node(0).driver().WriteHostU64(status_, 0);
  bed_.node(1).driver().PostRpc(kSendShuffleRpcOpcode, 1,
                                MakeParams(n_tuples * 8).Encode());
  const uint64_t status = RunToStatus();
  EXPECT_EQ(StatusWordCode(status), KernelStatusCode::kOk);
  EXPECT_EQ(StatusWordExtra(status), n_tuples);
}

}  // namespace
}  // namespace strom
