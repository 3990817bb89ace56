// Tests for the StromEngine plumbing between kernels, the RoCE stack, and
// the DMA engine: multi-chunk collection, multi-kernel dispatch, taps, and
// error paths.
#include <gtest/gtest.h>

#include "src/strom/engine.h"
#include "src/strom/kernel.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

// A scriptable test kernel: on params, emits a configurable sequence of DMA
// commands / data chunks / responses.
class ScriptKernel : public StromKernel {
 public:
  ScriptKernel(Simulator& sim, KernelConfig config, uint32_t opcode)
      : StromKernel(sim, config), opcode_(opcode) {
    stage_ = std::make_unique<LambdaStage>(sim, config.clock_ps, "script",
                                           [this] { return Fire(); });
    stage_->WakeOnPush(streams_.qpn_in);
    stage_->WakeOnPush(streams_.roce_data_in);
    stage_->WakeOnPush(streams_.dma_data_in);
  }

  uint32_t rpc_opcode() const override { return opcode_; }
  std::string name() const override { return "script"; }

  std::function<uint64_t(ScriptKernel&)> on_fire;
  KernelStreams& s() { return streams_; }
  std::vector<ByteBuffer> received_params;
  std::vector<NetChunk> received_data;

 private:
  uint64_t Fire() {
    if (!streams_.qpn_in.Empty() && !streams_.param_in.Empty()) {
      streams_.qpn_in.Pop();
      received_params.push_back(streams_.param_in.Pop());
      if (on_fire) {
        return on_fire(*this);
      }
      return 1;
    }
    if (!streams_.roce_data_in.Empty()) {
      received_data.push_back(streams_.roce_data_in.Pop());
      if (on_fire) {
        return on_fire(*this);
      }
      return 1;
    }
    return 0;
  }

  uint32_t opcode_;
  std::unique_ptr<LambdaStage> stage_;
};

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : bed_(Profile10G()) {
    bed_.ConnectQp(0, kQp, 1, kQp);
    resp_ = bed_.node(0).driver().AllocBuffer(MiB(1))->addr;
    remote_ = bed_.node(1).driver().AllocBuffer(MiB(1))->addr;
  }

  ScriptKernel* Deploy(uint32_t opcode) {
    const KernelConfig kc{bed_.profile().roce.clock_ps, bed_.profile().roce.data_width};
    auto kernel = std::make_unique<ScriptKernel>(bed_.sim(), kc, opcode);
    ScriptKernel* ptr = kernel.get();
    EXPECT_TRUE(bed_.node(1).engine().DeployKernel(std::move(kernel)).ok());
    return ptr;
  }

  Testbed bed_;
  VirtAddr resp_ = 0;
  VirtAddr remote_ = 0;
};

TEST_F(EngineTest, DmaWriteCollectedAcrossMultipleChunks) {
  ScriptKernel* k = Deploy(0x90);
  k->on_fire = [this](ScriptKernel& self) -> uint64_t {
    // One 24-byte DMA write delivered as three 8-byte chunks.
    self.s().dma_cmd_out.Push(MemCmd{remote_, 24, /*is_write=*/true});
    for (uint8_t i = 0; i < 3; ++i) {
      NetChunk chunk;
      chunk.data = FrameBuf::Adopt(ByteBuffer(8, static_cast<uint8_t>(0xA0 + i)));
      chunk.last = i == 2;
      self.s().dma_data_out.Push(std::move(chunk));
    }
    return 1;
  };
  bed_.node(0).driver().PostRpc(0x90, kQp, ByteBuffer(32, 1));
  bed_.sim().RunUntilIdle();

  ByteBuffer written = *bed_.node(1).driver().ReadHost(remote_, 24);
  EXPECT_EQ(ByteBuffer(written.begin(), written.begin() + 8), ByteBuffer(8, 0xA0));
  EXPECT_EQ(ByteBuffer(written.begin() + 8, written.begin() + 16), ByteBuffer(8, 0xA1));
  EXPECT_EQ(ByteBuffer(written.begin() + 16, written.end()), ByteBuffer(8, 0xA2));
  EXPECT_EQ(bed_.node(1).engine().counters().kernel_dma_writes, 1u);
}

using EngineDeathTest = EngineTest;

// The overfill check guards the pooled write frame's bound: a chunk larger
// than what is left of the pending write must stop the run before the copy.
TEST_F(EngineDeathTest, OverfilledDmaWriteDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ScriptKernel* k = Deploy(0x9A);
        k->on_fire = [this](ScriptKernel& self) -> uint64_t {
          self.s().dma_cmd_out.Push(MemCmd{remote_, 16, /*is_write=*/true});
          NetChunk chunk;
          chunk.data = FrameBuf::Adopt(ByteBuffer(24, 0xB0));
          chunk.last = true;
          self.s().dma_data_out.Push(std::move(chunk));
          return 1;
        };
        bed_.node(0).driver().PostRpc(0x9A, kQp, ByteBuffer(32, 1));
        bed_.sim().RunUntilIdle();
      },
      "overfilled a DMA write");
}

TEST_F(EngineTest, ResponseAssembledFromMultipleChunks) {
  ScriptKernel* k = Deploy(0x91);
  k->on_fire = [this](ScriptKernel& self) -> uint64_t {
    RoceMeta meta;
    meta.qpn = kQp;
    meta.addr = resp_;
    meta.length = 16;
    // Meta first, data dribbles in afterwards.
    self.s().roce_meta_out.Push(meta);
    NetChunk a;
    a.data = FrameBuf::Adopt(ByteBuffer(8, 0x11));
    a.last = false;
    self.s().roce_data_out.Push(std::move(a));
    NetChunk b;
    b.data = FrameBuf::Adopt(ByteBuffer(8, 0x22));
    b.last = true;
    self.s().roce_data_out.Push(std::move(b));
    return 1;
  };
  bed_.node(0).driver().FillHost(resp_, 16, 0);
  bed_.node(0).driver().PostRpc(0x91, kQp, ByteBuffer(32, 1));
  bed_.sim().RunUntilIdle();

  ByteBuffer got = *bed_.node(0).driver().ReadHost(resp_, 16);
  EXPECT_EQ(ByteBuffer(got.begin(), got.begin() + 8), ByteBuffer(8, 0x11));
  EXPECT_EQ(ByteBuffer(got.begin() + 8, got.end()), ByteBuffer(8, 0x22));
  EXPECT_EQ(bed_.node(1).engine().counters().kernel_responses, 1u);
}

TEST_F(EngineTest, MultipleKernelsDispatchIndependently) {
  ScriptKernel* a = Deploy(0x92);
  ScriptKernel* b = Deploy(0x93);
  bed_.node(0).driver().PostRpc(0x92, kQp, ByteBuffer(16, 0xAA));
  bed_.node(0).driver().PostRpc(0x93, kQp, ByteBuffer(16, 0xBB));
  bed_.node(0).driver().PostRpc(0x92, kQp, ByteBuffer(16, 0xCC));
  bed_.sim().RunUntilIdle();
  ASSERT_EQ(a->received_params.size(), 2u);
  ASSERT_EQ(b->received_params.size(), 1u);
  EXPECT_EQ(a->received_params[0][0], 0xAA);
  EXPECT_EQ(a->received_params[1][0], 0xCC);
  EXPECT_EQ(b->received_params[0][0], 0xBB);
}

TEST_F(EngineTest, RpcWriteStreamReachesKernelInOrder) {
  ScriptKernel* k = Deploy(0x94);
  const size_t n = 10 * 1000;  // several packets
  ByteBuffer payload = RandomBytes(n, 3);
  const VirtAddr local = bed_.node(0).driver().AllocBuffer(MiB(1))->addr;
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(local, payload).ok());
  bed_.node(0).driver().PostRpcWrite(0x94, kQp, local, n);
  bed_.sim().RunUntilIdle();

  ByteBuffer reassembled;
  for (const NetChunk& chunk : k->received_data) {
    reassembled.insert(reassembled.end(), chunk.data.begin(), chunk.data.end());
  }
  EXPECT_EQ(reassembled, payload);
  ASSERT_FALSE(k->received_data.empty());
  EXPECT_TRUE(k->received_data.back().last);
  for (size_t i = 0; i + 1 < k->received_data.size(); ++i) {
    EXPECT_FALSE(k->received_data[i].last);
  }
}

TEST_F(EngineTest, TapDetachStopsDelivery) {
  ScriptKernel* k = Deploy(0x95);
  ASSERT_TRUE(bed_.node(1).engine().AttachReceiveTap(kQp, 0x95).ok());
  const VirtAddr local = bed_.node(0).driver().AllocBuffer(MiB(1))->addr;
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(local, RandomBytes(256, 1)).ok());

  bed_.node(0).driver().PostWrite(kQp, local, remote_, 256);
  bed_.sim().RunUntilIdle();
  EXPECT_EQ(k->received_data.size(), 1u);

  bed_.node(1).engine().DetachReceiveTap(kQp);
  bed_.node(0).driver().PostWrite(kQp, local, remote_, 256);
  bed_.sim().RunUntilIdle();
  EXPECT_EQ(k->received_data.size(), 1u);  // unchanged
}

TEST_F(EngineTest, TapRequiresDeployedKernel) {
  EXPECT_EQ(bed_.node(1).engine().AttachReceiveTap(kQp, 0xFF).code(),
            StatusCode::kNotFound);
}

TEST_F(EngineTest, LocalInvokeUnknownOpcodeFails) {
  EXPECT_EQ(bed_.node(1).engine().InvokeLocal(0xFF, kQp, ByteBuffer(8, 0)).code(),
            StatusCode::kNotFound);
}

TEST_F(EngineTest, FindKernelReturnsDeployed) {
  ScriptKernel* k = Deploy(0x96);
  EXPECT_EQ(bed_.node(1).engine().FindKernel(0x96), k);
  EXPECT_EQ(bed_.node(1).engine().FindKernel(0x97), nullptr);
}

TEST_F(EngineTest, BurstBeyondFifoDepthIsBufferedNotDropped) {
  // 100 RPCs burst in; the kernel's qpn/param FIFOs are 64 deep, so the
  // engine inbox must absorb the overflow and deliver all of them.
  ScriptKernel* k = Deploy(0x98);
  for (int i = 0; i < 100; ++i) {
    WorkRequest wr;
    wr.kind = WorkRequest::Kind::kRpc;
    wr.qpn = kQp;
    wr.remote_addr = 0x98;
    wr.inline_data = ByteBuffer(8, static_cast<uint8_t>(i));
    ASSERT_TRUE(bed_.node(0).stack().PostRequest(std::move(wr)).ok());
  }
  bed_.sim().RunUntilIdle();
  ASSERT_EQ(k->received_params.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(k->received_params[i][0], static_cast<uint8_t>(i));
  }
}

}  // namespace
}  // namespace strom
