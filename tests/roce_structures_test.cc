// Unit tests for the RoCE state-keeping structures: the State Table's QP
// activation and PSN regions, the Multi-Queue (the two-array linked-list
// structure) and the Retransmission Timer. Each QP's entry of each lives in
// the QP's one record (RoceStack::QpState); the lists and timer entries
// here stand in for those records.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/roce/multi_queue.h"
#include "src/roce/retrans_timer.h"
#include "src/roce/stack.h"
#include "src/roce/state_table.h"
#include "src/sim/simulator.h"
#include "src/testbed/calibration.h"
#include "src/testbed/testbed.h"

namespace strom {
namespace {

TEST(StateTable, ActivateOnce) {
  Profile profile = Profile10G();
  profile.roce.max_qps = 4;
  Testbed bed(profile);
  RoceStack& stack = bed.node(0).stack();
  const Ipv4Addr peer = bed.node(1).ip();
  EXPECT_TRUE(stack.ConnectQp(1, 1, peer, /*local_psn=*/200, /*remote_psn=*/100).ok());
  EXPECT_TRUE(stack.QpConnected(1));
  EXPECT_FALSE(stack.QpConnected(2));
  const RoceStack::QpState* qp = stack.FindQp(1);
  ASSERT_NE(qp, nullptr);
  EXPECT_EQ(qp->state.epsn, 100u);
  EXPECT_EQ(qp->state.next_psn, 200u);
  EXPECT_EQ(qp->state.oldest_unacked, 200u);
  EXPECT_EQ(stack.ConnectQp(1, 1, peer, 0, 0).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(stack.ConnectQp(9, 1, peer, 0, 0).code(), StatusCode::kOutOfRange);
}

TEST(StateTable, PsnRegions) {
  EXPECT_EQ(CheckRequestPsn(100, 100), PsnCheck::kExpected);
  EXPECT_EQ(CheckRequestPsn(100, 99), PsnCheck::kDuplicate);
  EXPECT_EQ(CheckRequestPsn(100, 101), PsnCheck::kInvalid);
}

TEST(StateTable, PsnRegionsAcrossWrap) {
  // ePSN = 0: PSN 0xFFFFFF is one behind (duplicate), 1 is ahead (invalid).
  EXPECT_EQ(CheckRequestPsn(0, 0xFFFFFF), PsnCheck::kDuplicate);
  EXPECT_EQ(CheckRequestPsn(0, 1), PsnCheck::kInvalid);
}

ReadContext ReadAt(VirtAddr local_addr) {
  ReadContext ctx;
  ctx.local_addr = local_addr;
  return ctx;
}

TEST(MultiQueue, PerQpFifoOrder) {
  MultiQueue mq(8);
  MultiQueue::List list;
  mq.Push(list, ReadAt(1));
  mq.Push(list, ReadAt(2));
  EXPECT_EQ(list.count, 2u);
  EXPECT_EQ(mq.Head(list).local_addr, 1u);
  mq.PopHead(list);
  EXPECT_EQ(mq.Head(list).local_addr, 2u);
  mq.PopHead(list);
  EXPECT_TRUE(MultiQueue::Empty(list));
}

TEST(MultiQueue, ListsAreIndependent) {
  MultiQueue mq(8);
  MultiQueue::List qp0;
  MultiQueue::List qp3;
  mq.Push(qp0, ReadAt(10));
  mq.Push(qp3, ReadAt(20));
  EXPECT_EQ(mq.Head(qp0).local_addr, 10u);
  EXPECT_EQ(mq.Head(qp3).local_addr, 20u);
  mq.PopHead(qp0);
  EXPECT_TRUE(MultiQueue::Empty(qp0));
  EXPECT_FALSE(MultiQueue::Empty(qp3));
}

TEST(MultiQueue, CombinedCapacityIsFixed) {
  // "the combined length of all linked lists is fixed" (paper §4.1).
  MultiQueue mq(3);
  MultiQueue::List lists[4];
  mq.Push(lists[0], ReadContext{});
  mq.Push(lists[1], ReadContext{});
  EXPECT_FALSE(mq.full());
  mq.Push(lists[2], ReadContext{});
  EXPECT_TRUE(mq.full());  // all elements in use: no room for lists[3]
  EXPECT_EQ(mq.free_elements(), 0u);
  mq.PopHead(lists[1]);
  EXPECT_FALSE(mq.full());
  mq.Push(lists[3], ReadContext{});  // slot recycled
  EXPECT_EQ(lists[3].count, 1u);
}

TEST(MultiQueue, SlotRecyclingPreservesData) {
  MultiQueue mq(2);
  MultiQueue::List lists[2];
  for (int round = 0; round < 100; ++round) {
    MultiQueue::List& list = lists[round % 2];
    ReadContext ctx = ReadAt(static_cast<VirtAddr>(round) * 64);
    ctx.first_psn = static_cast<Psn>(round);
    mq.Push(list, ctx);
    EXPECT_EQ(mq.Head(list).first_psn, static_cast<Psn>(round));
    EXPECT_EQ(mq.Head(list).local_addr, static_cast<VirtAddr>(round) * 64);
    mq.PopHead(list);
  }
  EXPECT_EQ(mq.free_elements(), 2u);
}

// A READ's work request rides in its element, which holds the only stack
// reference once the READ is sent; freeing the element must release it.
TEST(MultiQueue, PopHeadDropsTheReadsWorkRequest) {
  MultiQueue mq(1);
  MultiQueue::List list;
  auto wr = std::make_shared<PendingWr>();
  ReadContext ctx;
  ctx.wr = wr;
  mq.Push(list, std::move(ctx));
  EXPECT_EQ(wr.use_count(), 2);
  EXPECT_EQ(mq.Head(list).wr, wr);
  mq.PopHead(list);
  EXPECT_EQ(wr.use_count(), 1);
}

TEST(RetransTimer, FiresAfterTimeout) {
  Simulator sim;
  RetransTimer timer(sim, Us(10), Ms(1));
  RetransTimer::Entry qp2;
  int fired = 0;
  timer.SetExpiryHandler([&](Qpn qpn) {
    EXPECT_EQ(qpn, 2u);
    ++fired;
  });
  timer.Arm(2, qp2);
  sim.RunFor(Us(9));
  EXPECT_EQ(fired, 0);
  sim.RunFor(Us(2));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.IsArmed(qp2));
}

TEST(RetransTimer, CancelPreventsExpiry) {
  Simulator sim;
  RetransTimer timer(sim, Us(10), Ms(1));
  RetransTimer::Entry qp1;
  int fired = 0;
  timer.SetExpiryHandler([&](Qpn) { ++fired; });
  timer.Cancel(qp1);  // never armed: nothing to cancel
  timer.Arm(1, qp1);
  sim.RunFor(Us(5));
  timer.Cancel(qp1);
  sim.RunFor(Us(20));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(timer.timers_cancelled(), 1u);
}

TEST(RetransTimer, RearmResetsDeadline) {
  Simulator sim;
  RetransTimer timer(sim, Us(10), Ms(1));
  RetransTimer::Entry qp0;
  int fired = 0;
  timer.SetExpiryHandler([&](Qpn) { ++fired; });
  timer.Arm(0, qp0);
  const Simulator::TimerHandle first = qp0.handle;
  sim.RunFor(Us(8));
  timer.Arm(0, qp0);  // fresh ACK progress: restart
  EXPECT_EQ(qp0.handle.idx, first.idx);  // the same timer, moved
  sim.RunFor(Us(8));
  EXPECT_EQ(fired, 0);
  sim.RunFor(Us(3));
  EXPECT_EQ(fired, 1);
}

TEST(RetransTimer, BackoffDoublesUpToCap) {
  Simulator sim;
  RetransTimer timer(sim, Us(10), Us(35));
  RetransTimer::Entry qp0;
  std::vector<SimTime> expiries;
  timer.SetExpiryHandler([&](Qpn qpn) {
    expiries.push_back(sim.now());
    if (expiries.size() < 4) {
      timer.RearmBackoff(qpn, qp0);
    }
  });
  timer.Arm(0, qp0);
  sim.RunUntilIdle();
  ASSERT_EQ(expiries.size(), 4u);
  EXPECT_EQ(expiries[0], Us(10));
  EXPECT_EQ(expiries[1] - expiries[0], Us(20));
  EXPECT_EQ(expiries[2] - expiries[1], Us(35));  // capped
  EXPECT_EQ(expiries[3] - expiries[2], Us(35));
}

TEST(RetransTimer, TimersPerQpAreIndependent) {
  Simulator sim;
  RetransTimer timer(sim, Us(10), Ms(1));
  RetransTimer::Entry qp0;
  RetransTimer::Entry qp1;
  std::vector<Qpn> fired;
  timer.SetExpiryHandler([&](Qpn qpn) { fired.push_back(qpn); });
  timer.Arm(0, qp0);
  sim.RunFor(Us(5));
  timer.Arm(1, qp1);
  timer.Cancel(qp0);
  sim.RunUntilIdle();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1u);
}

}  // namespace
}  // namespace strom
