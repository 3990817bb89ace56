// Robustness: parser fuzzing (arbitrary bytes must never crash the frame
// parsers) and fault-injection soak runs (random loss/corruption on both
// directions under mixed traffic must still deliver everything correctly).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/faults/fault_plan.h"
#include "src/kernels/traversal.h"
#include "src/kvs/linked_list.h"
#include "src/proto/packet.h"
#include "src/tcp/segment.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

TEST(ParserFuzz, RandomBytesNeverCrashRoceParser) {
  Rng rng(1);
  for (int i = 0; i < 20'000; ++i) {
    const size_t len = rng.Below(200);
    ByteBuffer frame = RandomBytes(len, rng.Next());
    Result<RocePacket> parsed = ParseRoceFrame(frame);
    // Random bytes virtually never form a valid ICRC'd packet.
    (void)parsed;
  }
  SUCCEED();
}

TEST(ParserFuzz, MutatedValidFramesAreRejectedOrEquivalent) {
  RocePacket pkt;
  pkt.src_ip = MakeIp(10, 0, 0, 1);
  pkt.dst_ip = MakeIp(10, 0, 0, 2);
  pkt.bth.opcode = IbOpcode::kWriteOnly;
  pkt.bth.dest_qp = 5;
  pkt.bth.psn = 77;
  RethHeader reth;
  reth.virt_addr = 0x1000;
  reth.dma_length = 64;
  pkt.reth = reth;
  pkt.payload = FrameBuf::Adopt(RandomBytes(64, 9));
  const MacAddr a{2, 0, 0, 0, 0, 1};
  const MacAddr b{2, 0, 0, 0, 0, 2};
  const ByteBuffer valid = EncodeRoceFrame(a, b, pkt).ToBuffer();

  const Result<RocePacket> reference = ParseRoceFrame(valid);
  ASSERT_TRUE(reference.ok());

  Rng rng(2);
  int accepted = 0;
  for (int i = 0; i < 10'000; ++i) {
    ByteBuffer mutated = valid;
    const int flips = 1 + static_cast<int>(rng.Below(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.Below(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.Below(255));
    }
    Result<RocePacket> parsed = ParseRoceFrame(mutated);
    if (parsed.ok()) {
      ++accepted;
      // Acceptable only when every protocol-relevant field is untouched:
      // the mutation must have hit bytes the protocol genuinely does not
      // validate (MAC addresses — the Ethernet FCS is modeled as wire
      // overhead — or ICRC-masked variant fields like the UDP checksum).
      EXPECT_EQ(parsed->payload, reference->payload);
      EXPECT_EQ(parsed->bth.psn, reference->bth.psn);
      EXPECT_EQ(parsed->bth.dest_qp, reference->bth.dest_qp);
      EXPECT_EQ(static_cast<int>(parsed->bth.opcode),
                static_cast<int>(reference->bth.opcode));
      ASSERT_TRUE(parsed->reth.has_value());
      EXPECT_EQ(parsed->reth->virt_addr, reference->reth->virt_addr);
      EXPECT_EQ(parsed->reth->dma_length, reference->reth->dma_length);
      EXPECT_EQ(parsed->src_ip, reference->src_ip);
      EXPECT_EQ(parsed->dst_ip, reference->dst_ip);
    }
  }
  // Most mutations must be rejected (ICRC + IP checksum coverage); the
  // accepted remainder hit the unvalidated byte ranges above.
  EXPECT_LT(accepted, 10'000 / 10);
}

TEST(ParserFuzz, RandomBytesNeverCrashTcpParser) {
  Rng rng(3);
  for (int i = 0; i < 20'000; ++i) {
    ByteBuffer frame = RandomBytes(rng.Below(120), rng.Next());
    (void)ParseTcpFrame(frame);
  }
  SUCCEED();
}

TEST(ParserFuzz, TraversalParamsDecodeNeverCrashes) {
  Rng rng(4);
  for (int i = 0; i < 10'000; ++i) {
    ByteBuffer raw = RandomBytes(rng.Below(64), rng.Next());
    (void)TraversalParams::Decode(raw);
  }
  SUCCEED();
}

// Fault plans are outside input (--fault-plan, chaosexplore --replay). Text
// the parser accepts must mean what it says: every value in range, and every
// field must come back the same through ToString.
void ExpectPlanRejectedOrRoundTrips(const std::string& text) {
  const Result<FaultPlan> plan = FaultPlan::Parse(text);
  if (!plan.ok()) {
    return;
  }
  SCOPED_TRACE("input:\n" + text);
  for (const FaultEpisode& ep : plan->episodes) {
    for (const double p : {ep.p, ep.p_good_to_bad, ep.p_bad_to_good, ep.loss_good, ep.loss_bad}) {
      EXPECT_TRUE(p >= 0 && p <= 1) << p;
    }
    for (const SimTime t : {ep.start, ep.end, ep.delay, ep.restart_after}) {
      EXPECT_TRUE(t >= 0 || t == -1) << t;
    }
    EXPECT_GE(ep.target, -1);
  }
  const std::string written = plan->ToString();
  const Result<FaultPlan> again = FaultPlan::Parse(written);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->ToString(), written);
  const auto fields = [](const FaultEpisode& e) {
    return std::make_tuple(e.type, e.target, e.start, e.end, e.p_good_to_bad, e.p_bad_to_good,
                           e.loss_good, e.loss_bad, e.p, e.delay, e.restart_after);
  };
  ASSERT_EQ(again->episodes.size(), plan->episodes.size());
  for (size_t i = 0; i < plan->episodes.size(); ++i) {
    EXPECT_TRUE(fields(again->episodes[i]) == fields(plan->episodes[i])) << written;
  }
}

TEST(ParserFuzz, FaultPlanTextIsRejectedOrRoundTrips) {
  Rng rng(5);
  for (int i = 0; i < 5'000; ++i) {
    const ByteBuffer raw = RandomBytes(rng.Below(80), rng.Next());
    ExpectPlanRejectedOrRoundTrips(std::string(raw.begin(), raw.end()));
  }
  // Mutated generator output: bytes from the grammar's own alphabet swapped
  // in, dropped or inserted, so most inputs stay close to valid plans.
  const std::string alphabet = "0123456789.-+*=_ \nabcdefilmnoprstuxyz#eE";
  int accepted = 0;
  for (int i = 0; i < 10'000; ++i) {
    const uint64_t seed = rng.Below(64);
    std::string text = (i % 2 == 0 ? MakeRandomPlan(seed, Ms(10))
                                   : MakeCrashPlan(seed, Us(400), 3, 1))
                           .ToString();
    for (int m = 1 + int(rng.Below(3)); m > 0; --m) {
      const size_t at = rng.Below(text.size());
      const char c = alphabet[rng.Below(alphabet.size())];
      switch (rng.Below(3)) {
        case 0:
          text[at] = c;
          break;
        case 1:
          text.erase(at, 1);
          break;
        default:
          text.insert(at, 1, c);
          break;
      }
    }
    accepted += FaultPlan::Parse(text).ok() ? 1 : 0;
    ExpectPlanRejectedOrRoundTrips(text);
  }
  // Enough mutants must still parse, or the round trip goes untested.
  EXPECT_GT(accepted, 500);
}

// ---------------------------------------------------------------------------
// Soak: mixed traffic under random loss + corruption on both directions.
// ---------------------------------------------------------------------------

class SoakTest : public ::testing::TestWithParam<double> {};

TEST_P(SoakTest, MixedTrafficSurvivesRandomFaults) {
  const double loss = GetParam();
  Testbed bed(Profile10G());
  bed.ConnectQp(0, kQp, 1, kQp);
  bed.direct_link()->SetDropProbability(0, loss, /*seed=*/100);
  bed.direct_link()->SetDropProbability(1, loss, /*seed=*/200);
  bed.direct_link()->CorruptNext(0, 2);  // a couple of corrupted frames too

  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(8))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(8))->addr;

  Rng rng(loss > 0 ? 11 : 12);
  struct Op {
    bool is_write;
    size_t size;
    VirtAddr src_off;
    ByteBuffer data;
    bool done = false;
  };
  std::vector<Op> ops;
  int completed = 0;
  for (int i = 0; i < 60; ++i) {
    Op op;
    op.is_write = rng.Chance(0.6);
    op.size = 64 + rng.Below(8000);
    op.src_off = static_cast<VirtAddr>(i) * KiB(16);
    op.data = RandomBytes(op.size, rng.Next());
    ops.push_back(std::move(op));
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    if (op.is_write) {
      ASSERT_TRUE(bed.node(0).driver().WriteHost(local + op.src_off, op.data).ok());
      bed.node(0).driver().PostWrite(kQp, local + op.src_off, remote + op.src_off,
                                     static_cast<uint32_t>(op.size), [&, i](Status st) {
                                       EXPECT_TRUE(st.ok()) << "write op " << i << ": " << st;
                                       ops[i].done = true;
                                       ++completed;
                                     });
    } else {
      ASSERT_TRUE(bed.node(1).driver().WriteHost(remote + op.src_off, op.data).ok());
      bed.node(0).driver().PostRead(kQp, local + op.src_off, remote + op.src_off,
                                    static_cast<uint32_t>(op.size), [&, i](Status st) {
                                      EXPECT_TRUE(st.ok()) << "read op " << i << ": " << st;
                                      ops[i].done = true;
                                      ++completed;
                                    });
    }
  }

  bed.sim().RunUntil([&] { return completed == static_cast<int>(ops.size()); });
  ASSERT_EQ(completed, static_cast<int>(ops.size())) << "ops stalled at loss " << loss;
  bed.sim().RunUntilIdle();

  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const VirtAddr check = op.is_write ? remote + op.src_off : local + op.src_off;
    RoceDriver& drv = op.is_write ? bed.node(1).driver() : bed.node(0).driver();
    EXPECT_EQ(*drv.ReadHost(check, op.size), op.data) << "op " << i;
  }
  if (loss > 0) {
    EXPECT_GT(bed.node(0).stack().counters().retransmitted_packets +
                  bed.node(1).stack().counters().retransmitted_packets,
              0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, SoakTest, ::testing::Values(0.0, 0.01, 0.05),
                         [](const ::testing::TestParamInfo<double>& param_info) {
                           return "loss_" + std::to_string(static_cast<int>(
                                                param_info.param * 100));
                         });

TEST(SoakTest2, KernelRpcsUnderLoss) {
  // Traversal RPCs with 2% loss in both directions: every lookup must still
  // return the right value (requests, responses, and ACKs all get lost).
  Testbed bed(Profile10G());
  bed.ConnectQp(0, kQp, 1, kQp);
  const KernelConfig kc{bed.profile().roce.clock_ps, bed.profile().roce.data_width};
  ASSERT_TRUE(
      bed.node(1).engine().DeployKernel(std::make_unique<TraversalKernel>(bed.sim(), kc)).ok());
  bed.direct_link()->SetDropProbability(0, 0.02, 300);
  bed.direct_link()->SetDropProbability(1, 0.02, 400);

  const VirtAddr resp = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr elems = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr values = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  std::vector<uint64_t> keys = {1, 2, 3, 4, 5, 6, 7, 8};
  auto list = RemoteLinkedList::Build(bed.node(1).driver(), elems, values, keys, 64, 9);
  ASSERT_TRUE(list.ok());

  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const uint64_t key = keys[rng.Below(keys.size())];
    bed.node(0).driver().FillHost(resp, 64 + 8, 0);
    bed.node(0).driver().PostRpc(kTraversalRpcOpcode, kQp,
                                 list->LookupParams(key, resp).Encode());
    bool done = false;
    const SimTime deadline = bed.sim().now() + Sec(2);
    while (!done && bed.sim().now() < deadline && bed.sim().Step()) {
      done = bed.node(0).driver().ReadHostU64(resp + 64) != 0;
    }
    ASSERT_TRUE(done) << "lookup " << i << " stalled";
    EXPECT_EQ(*bed.node(0).driver().ReadHost(resp, 64), list->ExpectedValue(key))
        << "lookup " << i;
  }
}

}  // namespace
}  // namespace strom
