// End-to-end tests of the RoCE v2 stack over the two-node testbed: writes,
// reads, multi-packet messages, loss/corruption recovery, PSN handling,
// outstanding-read limits, bidirectional traffic, and completion polling
// (tests/poll_wake_test.cc checks the poll's wake rule).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "src/common/frame_buf.h"
#include "src/proto/packet.h"
#include "src/sim/task.h"
#include "src/testbed/calibration.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;
// Simulated completion time of a 4 MiB WRITE on the 10 G cable, recorded
// when the TX engine staged every fetched chunk of a message (up to 2,433
// live frame blocks).
constexpr SimTime kLongWriteCompletion = 3'551'731'306;

class RoceStackTest : public ::testing::Test {
 protected:
  RoceStackTest() : bed_(Profile10G()) {
    bed_.ConnectQp(0, kQp, 1, kQp);
    RdmaBuffer local = *bed_.node(0).driver().AllocBuffer(MiB(8));
    RdmaBuffer remote = *bed_.node(1).driver().AllocBuffer(MiB(8));
    local_ = local.addr;
    remote_ = remote.addr;
  }

  // Runs the simulation until `flag` is set (with a safety horizon).
  void RunUntilDone(bool* flag, SimTime horizon = Ms(100)) {
    const SimTime deadline = bed_.sim().now() + horizon;
    while (!*flag && bed_.sim().now() < deadline && bed_.sim().Step()) {
    }
    ASSERT_TRUE(*flag) << "operation did not complete within horizon";
  }

  Testbed bed_;
  VirtAddr local_ = 0;
  VirtAddr remote_ = 0;
};

TEST_F(RoceStackTest, SinglePacketWriteDeliversData) {
  ByteBuffer data = RandomBytes(256, 1);
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(local_, data).ok());

  bool done = false;
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, 256, [&](Status st) {
    EXPECT_TRUE(st.ok()) << st;
    done = true;
  });
  RunUntilDone(&done);

  Result<ByteBuffer> got = bed_.node(1).driver().ReadHost(remote_, 256);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, data);
  EXPECT_EQ(bed_.node(0).stack().counters().write_messages_completed, 1u);
}

TEST_F(RoceStackTest, MultiPacketWriteReassemblesAtResponder) {
  const size_t n = 100 * 1000;  // ~70 packets
  ByteBuffer data = RandomBytes(n, 2);
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(local_, data).ok());

  bool done = false;
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, n, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  RunUntilDone(&done);

  EXPECT_EQ(*bed_.node(1).driver().ReadHost(remote_, n), data);
  // Multi-packet message used FIRST/MIDDLE/LAST framing.
  EXPECT_GT(bed_.node(0).stack().counters().tx_packets, 60u);
}

TEST_F(RoceStackTest, ZeroLengthWriteCompletes) {
  bool done = false;
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, 0, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  RunUntilDone(&done);
}

TEST_F(RoceStackTest, ReadFetchesRemoteData) {
  ByteBuffer data = RandomBytes(512, 3);
  ASSERT_TRUE(bed_.node(1).driver().WriteHost(remote_, data).ok());

  bool done = false;
  bed_.node(0).driver().PostRead(kQp, local_, remote_, 512, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  RunUntilDone(&done);

  EXPECT_EQ(*bed_.node(0).driver().ReadHost(local_, 512), data);
  EXPECT_EQ(bed_.node(0).stack().counters().read_messages_completed, 1u);
}

TEST_F(RoceStackTest, LargeReadSpansManyResponsePackets) {
  const size_t n = 64 * 1024;
  ByteBuffer data = RandomBytes(n, 4);
  ASSERT_TRUE(bed_.node(1).driver().WriteHost(remote_, data).ok());

  bool done = false;
  bed_.node(0).driver().PostRead(kQp, local_, remote_, n, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  RunUntilDone(&done);
  EXPECT_EQ(*bed_.node(0).driver().ReadHost(local_, n), data);
}

TEST_F(RoceStackTest, WriteSurvivesPacketLoss) {
  const size_t n = 32 * 1024;
  ByteBuffer data = RandomBytes(n, 5);
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(local_, data).ok());
  bed_.direct_link()->DropNext(0, 3);  // drop the first three data packets

  bool done = false;
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, n, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  RunUntilDone(&done, Sec(1));

  EXPECT_EQ(*bed_.node(1).driver().ReadHost(remote_, n), data);
  EXPECT_GT(bed_.node(0).stack().counters().retransmitted_packets, 0u);
}

TEST_F(RoceStackTest, WriteSurvivesAckLoss) {
  ByteBuffer data = RandomBytes(1024, 6);
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(local_, data).ok());
  bed_.direct_link()->DropNext(1, 1);  // drop the ACK

  bool done = false;
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, 1024, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  RunUntilDone(&done, Sec(1));
  EXPECT_EQ(*bed_.node(1).driver().ReadHost(remote_, 1024), data);
  // The retransmitted packet is a duplicate at the responder: re-ACKed.
  EXPECT_GT(bed_.node(1).stack().counters().duplicate_psn_packets, 0u);
  EXPECT_GT(bed_.node(0).stack().timer_expirations(), 0u);
}

TEST_F(RoceStackTest, CorruptedPacketDroppedByIcrcThenRecovered) {
  const size_t n = 8 * 1024;
  ByteBuffer data = RandomBytes(n, 7);
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(local_, data).ok());
  bed_.direct_link()->CorruptNext(0, 1);

  bool done = false;
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, n, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  RunUntilDone(&done, Sec(1));
  EXPECT_EQ(*bed_.node(1).driver().ReadHost(remote_, n), data);
  EXPECT_GT(bed_.node(1).stack().counters().icrc_drops, 0u);
}

TEST_F(RoceStackTest, ReadSurvivesResponseLoss) {
  const size_t n = 16 * 1024;
  ByteBuffer data = RandomBytes(n, 8);
  ASSERT_TRUE(bed_.node(1).driver().WriteHost(remote_, data).ok());
  bed_.direct_link()->DropNext(1, 2);  // drop two response packets

  bool done = false;
  bed_.node(0).driver().PostRead(kQp, local_, remote_, n, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  RunUntilDone(&done, Sec(1));
  EXPECT_EQ(*bed_.node(0).driver().ReadHost(local_, n), data);
}

TEST_F(RoceStackTest, PipelinedWritesAllComplete) {
  const int kWrites = 50;
  ByteBuffer data = RandomBytes(kWrites * 64, 9);
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(local_, data).ok());

  int completed = 0;
  bool all = false;
  for (int i = 0; i < kWrites; ++i) {
    bed_.node(0).driver().PostWrite(kQp, local_ + i * 64, remote_ + i * 64, 64,
                                    [&](Status st) {
                                      EXPECT_TRUE(st.ok());
                                      if (++completed == kWrites) {
                                        all = true;
                                      }
                                    });
  }
  RunUntilDone(&all);
  EXPECT_EQ(*bed_.node(1).driver().ReadHost(remote_, kWrites * 64), data);
}

// The TX engine stages at most kTxFetchWindow chunks of a message that are
// fetched or in flight but not yet sent, so a long WRITE does not hold a
// frame per packet. The bound leaves the WRITE's timing as it was when the
// whole message could be staged.
TEST_F(RoceStackTest, LongWriteStagesABoundedNumberOfChunks) {
  const uint32_t len = static_cast<uint32_t>(MiB(4));  // ~2,900 packets
  const int64_t base = static_cast<int64_t>(FrameBlocksOutstanding());
  int64_t peak = 0;
  SimTime done_at = -1;
  const SimTime start = bed_.sim().now();
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, len, [&](Status st) {
    EXPECT_TRUE(st.ok()) << st;
    done_at = bed_.sim().now();
  });
  while (done_at < 0 && bed_.sim().Step()) {
    peak = std::max(peak, static_cast<int64_t>(FrameBlocksOutstanding()) - base);
  }
  ASSERT_GE(done_at, 0);
  // 84 at the peak: at most 16 staged chunks, and frames waiting for the
  // cable, whose backlog grows by about 2 per 100 us of the message (the
  // NIC takes a packet per data-path word of its IP-to-ICRC bytes, the wire
  // also carries the Ethernet header and PHY overhead). Staging the whole
  // message peaked at 2,433.
  EXPECT_LT(peak, 128);
  EXPECT_EQ(done_at - start, kLongWriteCompletion);
}

TEST_F(RoceStackTest, OutstandingReadsBoundedByMultiQueue) {
  const uint32_t capacity = bed_.node(0).stack().config().multi_queue_total;
  ByteBuffer data = RandomBytes(64, 10);
  ASSERT_TRUE(bed_.node(1).driver().WriteHost(remote_, data).ok());

  // Posting directly to the stack (bypassing controller pacing) so all reads
  // are outstanding at once.
  uint32_t accepted = 0;
  uint32_t rejected = 0;
  for (uint32_t i = 0; i <= capacity; ++i) {
    WorkRequest wr;
    wr.kind = WorkRequest::Kind::kRead;
    wr.qpn = kQp;
    wr.local_addr = local_ + i * 64;
    wr.remote_addr = remote_;
    wr.length = 64;
    Status st = bed_.node(0).stack().PostRequest(std::move(wr));
    if (st.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, capacity);
  EXPECT_EQ(rejected, 1u);
  bed_.sim().RunUntilIdle();
  EXPECT_EQ(bed_.node(0).stack().counters().read_messages_completed, capacity);
}

TEST_F(RoceStackTest, BidirectionalTrafficDoesNotInterfere) {
  const size_t n = 20 * 1024;
  ByteBuffer d01 = RandomBytes(n, 11);
  ByteBuffer d10 = RandomBytes(n, 12);
  ASSERT_TRUE(bed_.node(0).driver().WriteHost(local_, d01).ok());
  ASSERT_TRUE(bed_.node(1).driver().WriteHost(remote_ + MiB(1), d10).ok());

  bool done0 = false;
  bool done1 = false;
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, n, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done0 = true;
  });
  bed_.node(1).driver().PostWrite(kQp, remote_ + MiB(1), local_ + MiB(1), n, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done1 = true;
  });
  bed_.sim().RunUntilIdle();
  EXPECT_TRUE(done0);
  EXPECT_TRUE(done1);
  EXPECT_EQ(*bed_.node(1).driver().ReadHost(remote_, n), d01);
  EXPECT_EQ(*bed_.node(0).driver().ReadHost(local_ + MiB(1), n), d10);
}

TEST_F(RoceStackTest, UnknownQpPacketsDropped) {
  // A packet addressed to a non-connected QP is counted and dropped.
  RocePacket pkt;
  pkt.src_ip = bed_.node(0).ip();
  pkt.dst_ip = bed_.node(1).ip();
  pkt.bth.opcode = IbOpcode::kWriteOnly;
  pkt.bth.dest_qp = 77;
  pkt.bth.psn = 0;
  RethHeader reth;
  reth.virt_addr = remote_;
  reth.dma_length = 8;
  pkt.reth = reth;
  pkt.payload.assign(8, 0xFF);

  MacAddr src{0x02, 0, 0, 0, 0, 1};
  MacAddr dst{0x02, 0, 0, 0, 0, 2};
  bed_.node(1).stack().OnFrame(EncodeRoceFrame(src, dst, pkt));
  bed_.sim().RunUntilIdle();
  EXPECT_EQ(bed_.node(1).stack().counters().unknown_qp_drops, 1u);
}

// ConnectQp is where the max_qps bound is enforced: a QPN at the bound or
// at the top of the 24-bit QPN space gets no record, so the packet and post
// paths treat it as any unconnected QP without checking the bound again.
TEST_F(RoceStackTest, QpnsAtTheEdgesGetNoRecord) {
  RoceStack& stack = bed_.node(1).stack();
  for (const Qpn qpn : {Qpn{stack.config().max_qps}, Qpn{0xFFFFFF}}) {
    SCOPED_TRACE(qpn);
    EXPECT_EQ(stack.ConnectQp(qpn, kQp, bed_.node(0).ip(), 0, 0).code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ(stack.FindQp(qpn), nullptr);

    int completions = 0;
    WorkRequest wr;
    wr.kind = WorkRequest::Kind::kRead;
    wr.qpn = qpn;
    wr.local_addr = remote_;
    wr.remote_addr = local_;
    wr.length = 64;
    wr.on_complete = [&](Status st) {
      EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
      ++completions;
    };
    EXPECT_EQ(stack.PostRequest(std::move(wr)).code(), StatusCode::kFailedPrecondition);

    const uint64_t drops = stack.counters().unknown_qp_drops;
    RocePacket pkt;
    pkt.src_ip = bed_.node(0).ip();
    pkt.dst_ip = bed_.node(1).ip();
    pkt.bth.opcode = IbOpcode::kWriteOnly;
    pkt.bth.dest_qp = qpn;
    RethHeader reth;
    reth.virt_addr = remote_;
    reth.dma_length = 8;
    pkt.reth = reth;
    pkt.payload.assign(8, 0xFF);
    stack.OnFrame(EncodeRoceFrame(MacAddr{0x02, 0, 0, 0, 0, 1}, MacAddr{0x02, 0, 0, 0, 0, 2},
                                  pkt));
    bed_.sim().RunUntilIdle();
    EXPECT_EQ(stack.counters().unknown_qp_drops, drops + 1);
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(stack.FindQp(qpn), nullptr);
  }
}

// A cancellable timer keeps its event-queue slot for life, so a QP's record
// keeps its retransmission timer across a reset: the reconnected QP re-arms
// the same timer rather than creating (and leaking) a second one.
TEST_F(RoceStackTest, ResetQpKeepsTheRetransmissionTimer) {
  auto write_once = [this] {
    bool done = false;
    bed_.node(0).driver().PostWrite(kQp, local_, remote_, 64, [&](Status st) {
      EXPECT_TRUE(st.ok()) << st;
      done = true;
    });
    RunUntilDone(&done);
  };
  write_once();
  RoceStack& stack = bed_.node(0).stack();
  const Simulator::TimerHandle timer = stack.FindQp(kQp)->timer.handle;
  ASSERT_TRUE(timer.valid());

  bed_.ReconnectQp(0, kQp, 1, kQp);
  EXPECT_EQ(stack.FindQp(kQp)->timer.handle.idx, timer.idx);
  write_once();
  EXPECT_EQ(stack.FindQp(kQp)->timer.handle.idx, timer.idx);
  EXPECT_EQ(stack.counters().qp_resets, 1u);
}

TEST_F(RoceStackTest, PostToUnconnectedQpFailsFast) {
  WorkRequest wr;
  wr.kind = WorkRequest::Kind::kWrite;
  wr.qpn = 99;
  wr.length = 8;
  bool cb = false;
  wr.on_complete = [&](Status st) {
    EXPECT_FALSE(st.ok());
    cb = true;
  };
  EXPECT_EQ(bed_.node(0).stack().PostRequest(std::move(wr)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(cb);
}

// Completions fired by a QP flush may post more work, re-entering the TX
// engine mid-flush. Every WR must still reach exactly one completion.
class FlushReentrancyTest : public RoceStackTest {
 protected:
  static constexpr Qpn kOtherQp = 2;
  static constexpr int kQueued = 3;

  FlushReentrancyTest() { bed_.ConnectQp(0, kOtherQp, 1, kOtherQp); }

  Status Post(WorkRequest::Kind kind, Qpn qpn, uint32_t length,
              std::function<void(Status)> done) {
    WorkRequest wr;
    wr.kind = kind;
    wr.qpn = qpn;
    wr.local_addr = local_;
    wr.remote_addr = remote_;
    wr.length = length;
    wr.on_complete = std::move(done);
    return bed_.node(0).stack().PostRequest(std::move(wr));
  }

  Status PostWrite(Qpn qpn, std::function<void(Status)> done) {
    return Post(WorkRequest::Kind::kWrite, qpn, 4096, std::move(done));
  }

  // Completion of a flushed WR: records its status, then posts one write on
  // the flushed QP and one on kOtherQp.
  void FlushedAndPostMore(Status st) {
    flushed_.push_back(st);
    PostWrite(kQp, [this](Status s) { same_qp_.push_back(s); });
    PostWrite(kOtherQp, [this](Status s) { other_qp_.push_back(s); });
  }

  // Queues kQueued writes on kQp; the first one's completion posts more.
  // Nothing is sent before the flush: the payload fetches are still in
  // flight.
  void QueueWritesThatPostOnCompletion() {
    for (int i = 0; i < kQueued; ++i) {
      ASSERT_TRUE(PostWrite(kQp, [this, i](Status st) {
                    if (i == 0) {
                      FlushedAndPostMore(st);
                    } else {
                      flushed_.push_back(st);
                    }
                  }).ok());
    }
    ASSERT_EQ(bed_.node(0).stack().counters().tx_packets, 0u);
  }

  // Every flushed WR failed with `code`, every same-QP post was rejected,
  // and every other-QP post completed.
  void ExpectOneCompletionEach(size_t flushed, StatusCode code, size_t posting) {
    ASSERT_EQ(flushed_.size(), flushed);
    for (const Status& st : flushed_) {
      EXPECT_EQ(st.code(), code) << st;
    }
    ASSERT_EQ(same_qp_.size(), posting);
    for (const Status& st : same_qp_) {
      EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st;
    }
    ASSERT_EQ(other_qp_.size(), posting);
    for (const Status& st : other_qp_) {
      EXPECT_TRUE(st.ok()) << st;
    }
    EXPECT_EQ(bed_.node(0).stack().counters().wrs_flushed, uint64_t{flushed});
  }

  std::vector<Status> flushed_;
  std::vector<Status> same_qp_;
  std::vector<Status> other_qp_;
};

TEST_F(FlushReentrancyTest, ErrorQpRejectsSameQpPostAndServesOtherQp) {
  QueueWritesThatPostOnCompletion();
  bed_.node(0).stack().ErrorQp(kQp, InternalError("injected"));
  bed_.sim().RunUntilIdle();

  ExpectOneCompletionEach(kQueued, StatusCode::kInternal, 1);
  EXPECT_EQ(bed_.node(0).stack().counters().write_messages_completed, uint64_t{kQueued} + 1);
}

TEST_F(FlushReentrancyTest, ResetQpRejectsSameQpPostFromUnsentWr) {
  QueueWritesThatPostOnCompletion();
  ASSERT_TRUE(bed_.node(0).stack().ResetQp(kQp).ok());
  bed_.sim().RunUntilIdle();

  ExpectOneCompletionEach(kQueued, StatusCode::kUnavailable, 1);
}

// The completions ResetQp fires after the unsent WRs, for a write awaiting
// its ACK and for an outstanding read, are gated the same way: the QP stays
// connected through the flush, so only its Error phase keeps their posts
// out of a QP that is about to be wiped.
TEST_F(FlushReentrancyTest, ResetQpRejectsSameQpPostFromSentWriteAndOutstandingRead) {
  ASSERT_TRUE(Post(WorkRequest::Kind::kWrite, kQp, 256,
                   [this](Status st) { FlushedAndPostMore(st); }).ok());
  ASSERT_TRUE(Post(WorkRequest::Kind::kRead, kQp, 256,
                   [this](Status st) { FlushedAndPostMore(st); }).ok());
  // Both requests on the wire, neither answered yet.
  const RoceCounters& c = bed_.node(0).stack().counters();
  while (c.tx_packets < 2 && bed_.sim().Step()) {
  }
  ASSERT_EQ(c.tx_packets, 2u);
  ASSERT_TRUE(flushed_.empty());
  ASSERT_EQ(bed_.node(0).stack().FindQp(kQp)->reads.count, 1u);

  ASSERT_TRUE(bed_.node(0).stack().ResetQp(kQp).ok());
  bed_.sim().RunUntilIdle();

  ExpectOneCompletionEach(2, StatusCode::kUnavailable, 2);
}

// A stale-epoch NAK answering a packet of the pair's previous incarnation
// can reach the requester after the reconnect. Only a NAK whose PSN lies in
// what the live incarnation has sent, [oldest_unacked, next_psn), errors the
// QP.
class StaleNakTest : public RoceStackTest {
 protected:
  // Runs one WRITE on the first incarnation (PSN 1000), reconnects with
  // fresh PSNs (2000 on node 0) and leaves a second WRITE's one packet on
  // the wire, unacknowledged.
  void ReconnectWithAWriteInFlight() {
    bool first = false;
    bed_.node(0).driver().PostWrite(kQp, local_, remote_, 64, [&](Status st) {
      EXPECT_TRUE(st.ok()) << st;
      first = true;
    });
    RunUntilDone(&first);
    bed_.sim().RunUntilIdle();
    bed_.ReconnectQp(0, kQp, 1, kQp);
    bed_.node(0).driver().PostWrite(kQp, local_, remote_, 64, [this](Status st) {
      second_ = st;
      ++completions_;
    });
    const RoceCounters& c = bed_.node(0).stack().counters();
    const uint64_t sent = c.tx_packets;
    while (c.tx_packets == sent && bed_.sim().Step()) {
    }
    ASSERT_EQ(completions_, 0);
  }

  // Delivers a NAK(stale epoch) for `psn` to node 0, as if node 1 had sent
  // it, and runs to idle.
  void DeliverStaleNak(Psn psn) {
    RocePacket nak;
    nak.src_ip = bed_.node(1).ip();
    nak.dst_ip = bed_.node(0).ip();
    nak.bth.opcode = IbOpcode::kAck;
    nak.bth.dest_qp = kQp;
    nak.bth.psn = psn;
    AethHeader aeth;
    aeth.syndrome = AckSyndrome::kNakStaleEpoch;
    aeth.msn = 1;
    nak.aeth = aeth;
    bed_.node(0).stack().OnFrame(
        EncodeRoceFrame(bed_.node(1).mac(), bed_.node(0).mac(), nak));
    bed_.sim().RunUntilIdle();
  }

  QpPhase Phase() { return bed_.node(0).stack().FindQp(kQp)->state.phase; }

  Status second_;
  int completions_ = 0;
};

TEST_F(StaleNakTest, NakForThePreviousIncarnationLeavesTheQpReady) {
  ReconnectWithAWriteInFlight();
  DeliverStaleNak(1000);

  EXPECT_EQ(bed_.node(0).stack().counters().rx_stale_naks, 1u);
  EXPECT_EQ(Phase(), QpPhase::kReady);
  ASSERT_EQ(completions_, 1);
  EXPECT_TRUE(second_.ok()) << second_;
}

TEST_F(StaleNakTest, NakInsideTheLiveWindowErrorsTheQp) {
  ReconnectWithAWriteInFlight();
  DeliverStaleNak(2000);

  EXPECT_EQ(Phase(), QpPhase::kError);
  ASSERT_EQ(completions_, 1);
  EXPECT_EQ(second_.code(), StatusCode::kFailedPrecondition) << second_;
}

// A READ leaves the Multi-Queue when its last response arrives and completes
// when that response's DMA write lands. A NIC crash in between fences the
// write's completion, so the crash's flush must complete the READ.
TEST_F(RoceStackTest, CrashWhileAReadsLastResponseLandsCompletesItOnceInError) {
  bed_.node(0).dma().EnableCrashFaults();
  int completions = 0;
  Status result;
  bed_.node(0).driver().PostRead(kQp, local_, remote_, 256, [&](Status st) {
    ++completions;
    result = st;
  });
  const RoceStack& stack = bed_.node(0).stack();
  while (stack.FindQp(kQp)->reads.count == 0 && bed_.sim().Step()) {
  }
  while (stack.FindQp(kQp)->reads.count == 1 && bed_.sim().Step()) {
  }
  ASSERT_EQ(stack.FindQp(kQp)->reads.count, 0u);
  ASSERT_EQ(completions, 0) << "the response's DMA write has not landed yet";

  bed_.node(0).Crash(FaultTargetKind::kNic);
  bed_.sim().RunUntilIdle();

  EXPECT_EQ(completions, 1);
  EXPECT_EQ(result.code(), StatusCode::kUnavailable) << result;
}

TEST_F(RoceStackTest, PollingSeesWrittenValue) {
  // The paper's ping-pong completion: writer sets a word, poller spins.
  bed_.node(1).driver().WriteHostU64(remote_, 0);

  bool polled = false;
  struct Ctx {
    Testbed& bed;
    VirtAddr remote;
    bool* polled;
  };
  auto poll_task = [](Ctx ctx) -> Task {
    const uint64_t value = co_await ctx.bed.node(1).driver().PollU64(ctx.remote, 0);
    EXPECT_EQ(value, 0xABCDull);
    *ctx.polled = true;
  };
  bed_.sim().Spawn(poll_task(Ctx{bed_, remote_, &polled}));

  bed_.node(0).driver().WriteHostU64(local_, 0xABCD);
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, 8);
  bed_.sim().RunUntil([&] { return polled; });
  EXPECT_TRUE(polled);
}

TEST_F(RoceStackTest, WriteLatencyInPaperRange) {
  // Fig 5a: 10 G write latency at small payloads is a few microseconds.
  bed_.node(0).driver().WriteHostU64(local_, 0x1111);
  bed_.node(1).driver().WriteHostU64(remote_, 0);

  SimTime done_at = -1;
  const SimTime start = bed_.sim().now();
  struct Ctx {
    Testbed& bed;
    VirtAddr remote;
    SimTime* done_at;
  };
  auto task = [](Ctx c) -> Task {
    co_await c.bed.node(1).driver().PollU64(c.remote, 0);
    *c.done_at = c.bed.sim().now();
  };
  bed_.sim().Spawn(task(Ctx{bed_, remote_, &done_at}));
  bed_.node(0).driver().PostWrite(kQp, local_, remote_, 64);
  bed_.sim().RunUntil([&] { return done_at >= 0; });

  const double us = ToUs(done_at - start);
  EXPECT_GT(us, 1.0);
  EXPECT_LT(us, 6.0);  // one-way delivery of a 64 B write
}

// Under DCQCN a paced QP's long message sits at its TX staging bound for
// most of its life. The fetch loop skips it rather than stopping there, so a
// short WRITE posted after it on another QP is fetched and sent at once
// (about 7 us), not after the long message's last fetch (about 85 ms at
// the floor rate). Before the bound, all of the long message's fetches went
// out first and the short WRITE took 151 us.
TEST(TxStaging, PacedLongMessageDoesNotHoldBackAnotherQpsFetch) {
  constexpr Qpn kPaced = 1;
  constexpr Qpn kOther = 2;
  Profile profile = Profile10G();
  profile.roce.dcqcn.enable = true;
  profile.roce.dcqcn.rate_cut_interval = 0;    // every CNP cuts the rate
  profile.roce.dcqcn.increase_interval = Sec(1);  // and nothing recovers it
  Testbed bed(profile);
  bed.ConnectQp(0, kPaced, 1, kPaced);
  bed.ConnectQp(0, kOther, 1, kOther);
  RoceDriver& drv = bed.node(0).driver();
  const VirtAddr local = drv.AllocBuffer(MiB(2))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(2))->addr;

  // Cut the paced QP to its rate floor (1% of line rate) with CNPs: ACKs
  // that carry the BECN bit and acknowledge nothing new.
  RoceStack& stack = bed.node(0).stack();
  RocePacket cnp;
  cnp.src_ip = bed.node(1).ip();
  cnp.dst_ip = bed.node(0).ip();
  cnp.bth.opcode = IbOpcode::kAck;
  cnp.bth.dest_qp = kPaced;
  cnp.bth.psn = PsnAdd(stack.FindQp(kPaced)->state.oldest_unacked, kPsnMask);
  cnp.bth.becn = true;
  cnp.aeth = AethHeader{};
  const MacAddr mac1{0x02, 0, 0, 0, 0, 2};
  const MacAddr mac0{0x02, 0, 0, 0, 0, 1};
  for (int i = 0; i < 8; ++i) {
    stack.OnFrame(EncodeRoceFrame(mac1, mac0, cnp));
  }
  bed.sim().RunUntilIdle();
  ASSERT_EQ(stack.counters().dcqcn_rate_cuts, 8u);

  bool long_done = false;
  SimTime short_done_at = -1;
  const SimTime posted = bed.sim().now();
  drv.PostWrite(kPaced, local, remote, static_cast<uint32_t>(MiB(1)),
                [&](Status st) {
                  EXPECT_TRUE(st.ok()) << st;
                  long_done = true;
                });
  drv.PostWrite(kOther, local + MiB(1), remote + MiB(1), 64, [&](Status st) {
    EXPECT_TRUE(st.ok()) << st;
    short_done_at = bed.sim().now();
  });
  bed.sim().RunUntil(
      [&] { return short_done_at >= 0 || bed.sim().now() > posted + Ms(10); });
  ASSERT_GE(short_done_at, 0) << "the short WRITE waited behind the paced message";
  EXPECT_LT(short_done_at - posted, Us(50));
  EXPECT_FALSE(long_done);  // ~85 ms at the floor rate
  EXPECT_GT(stack.counters().pacing_deferrals, 0u);
}

}  // namespace
}  // namespace strom
