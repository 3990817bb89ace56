// Unit tests for the discrete-event simulator, coroutine tasks, and FIFOs.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/event_queue.h"
#include "src/sim/fifo.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace strom {
namespace {

TEST(Time, TransferTimeMatchesRate) {
  // 1250 bytes at 10 Gbit/s = 1 us.
  EXPECT_EQ(TransferTime(1250, 10'000'000'000ull), Us(1));
  // 64 bytes at 100 Gbit/s = 5.12 ns.
  EXPECT_EQ(TransferTime(64, 100'000'000'000ull), Ps(5120));
}

TEST(Time, TransferTimeHandlesGigabyteTransfers) {
  // 1 GiB at 10 Gbit/s ~ 0.859 s; must not overflow.
  const SimTime t = TransferTime(1ull << 30, 10'000'000'000ull);
  EXPECT_NEAR(ToSec(t), 0.8589934, 1e-4);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Ns(30), [&] { order.push_back(3); });
  sim.Schedule(Ns(10), [&] { order.push_back(1); });
  sim.Schedule(Ns(20), [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Ns(30));
}

// Regression for the old priority_queue Pop() (const-cast move out of
// top()): same-timestamp events interleaved with other timestamps and with
// pops must still come out in insertion order. The indexed heap breaks ties
// on a monotone sequence number, so order survives arbitrary sift paths.
TEST(EventQueue, InterleavedSameTimestampPopsInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  // Interleave pushes at t=10 with pushes at surrounding timestamps so the
  // t=10 entries are scattered through the heap array, not adjacent.
  for (int i = 0; i < 16; ++i) {
    q.Push(Ns(20), [&fired, v = 100 + i] { fired.push_back(v); });
    q.Push(Ns(10), [&fired, i] { fired.push_back(i); });
    q.Push(Ns(30), [&fired, v = 200 + i] { fired.push_back(v); });
  }
  // Drain half of t=10 while pushing more events at the same timestamp; the
  // new ones must fire after every earlier t=10 event.
  for (int k = 0; k < 8; ++k) {
    EventQueue::Event ev = q.Pop();
    EXPECT_EQ(ev.when, Ns(10));
    ev.fn();
    q.Push(Ns(10), [&fired, v = 16 + k] { fired.push_back(v); });
  }
  while (!q.empty()) {
    q.Pop().fn();
  }
  std::vector<int> expect;
  for (int i = 0; i < 24; ++i) expect.push_back(i);          // all t=10
  for (int i = 0; i < 16; ++i) expect.push_back(100 + i);    // then t=20
  for (int i = 0; i < 16; ++i) expect.push_back(200 + i);    // then t=30
  EXPECT_EQ(fired, expect);
}

TEST(EventQueue, PopReturnsMonotoneSeqForSameTimestamp) {
  EventQueue q;
  for (int i = 0; i < 64; ++i) {
    q.Push(Us(1), [] {});
  }
  uint64_t prev_seq = 0;
  for (int i = 0; i < 64; ++i) {
    EventQueue::Event ev = q.Pop();
    if (i > 0) {
      EXPECT_GT(ev.seq, prev_seq);
    }
    prev_seq = ev.seq;
  }
  EXPECT_TRUE(q.empty());
}

// Cancellation stress: randomized arm/cancel/re-arm/pop churn against a
// reference model (an ordered set of (when, seq, label) triples). Deadlines
// mix near, mid and far horizons (up to 2^14, 2^22 and 2^38 ps out), and
// every fire is compared label-for-label.
void CancellationStress(uint64_t seed) {
  EventQueue q;
  Rng rng(seed);

  constexpr int kTimers = 64;
  std::vector<int> fired;  // labels in fire order, compared against the model
  std::vector<EventQueue::TimerId> timers;
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(q.CreateTimer([&fired, i] { fired.push_back(i); }));
  }

  // Reference model: (when, seq, label) for every live entry; one-shot
  // labels are kTimers + slot-independent counter.
  using Key = std::tuple<SimTime, uint64_t, int>;
  std::set<Key> model;
  std::vector<std::optional<Key>> pending(kTimers);  // timer -> live key
  std::vector<int> model_fired;
  uint64_t next_seq = 0;
  int next_oneshot = kTimers;
  SimTime now = 0;

  auto random_when = [&]() -> SimTime {
    switch (rng.Below(3)) {
      case 0:
        return now + 1 + SimTime(rng.Below(1 << 14));
      case 1:
        return now + 1 + SimTime(rng.Below(1 << 22));
      default:
        return now + 1 + SimTime(rng.Below(uint64_t{1} << 38));
    }
  };

  for (int step = 0; step < 20000; ++step) {
    switch (rng.Below(10)) {
      case 0:
      case 1:
      case 2: {  // arm / re-arm a random timer
        const int i = static_cast<int>(rng.Below(kTimers));
        const SimTime when = random_when();
        if (pending[i]) {
          model.erase(*pending[i]);
        }
        pending[i] = Key{when, next_seq, i};
        model.insert(*pending[i]);
        q.ArmTimer(timers[i], when);
        ++next_seq;
        break;
      }
      case 3: {  // cancel a random timer
        const int i = static_cast<int>(rng.Below(kTimers));
        const bool was_pending = pending[i].has_value();
        if (was_pending) {
          model.erase(*pending[i]);
          pending[i].reset();
        }
        EXPECT_EQ(q.CancelTimer(timers[i]), was_pending);
        break;
      }
      case 4:
      case 5: {  // one-shot push
        const SimTime when = random_when();
        const int label = next_oneshot++;
        model.insert(Key{when, next_seq, label});
        q.Push(when, [&fired, label] { fired.push_back(label); });
        ++next_seq;
        break;
      }
      default: {  // pop
        ASSERT_EQ(q.empty(), model.empty());
        if (model.empty()) {
          break;
        }
        const Key expect = *model.begin();
        ASSERT_EQ(q.NextTime(), std::get<0>(expect));
        EventQueue::Event ev = q.Pop();
        ASSERT_EQ(ev.when, std::get<0>(expect));
        ASSERT_EQ(ev.seq, std::get<1>(expect));
        model.erase(model.begin());
        const int label = std::get<2>(expect);
        if (label < kTimers) {
          pending[label].reset();
        }
        model_fired.push_back(label);
        now = ev.when;
        ev.Run();
        ASSERT_EQ(fired.size(), model_fired.size());
        ASSERT_EQ(fired.back(), model_fired.back());
        break;
      }
    }
    ASSERT_EQ(q.size(), model.size());
  }
  // Drain: every remaining entry fires in model order.
  while (!model.empty()) {
    const Key expect = *model.begin();
    model.erase(model.begin());
    EventQueue::Event ev = q.Pop();
    ASSERT_EQ(ev.when, std::get<0>(expect));
    ASSERT_EQ(ev.seq, std::get<1>(expect));
    ev.Run();
    ASSERT_EQ(fired.back(), std::get<2>(expect));
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventCoreCancellation, StressMatchesReferenceModelHeap) {
  CancellationStress(17);
  CancellationStress(4242);
}

// A long equal-`when` run must fire in insertion order, interleaved
// one-shots and timers alike.
TEST(EventCoreBatching, SameTimestampFifoHeap) {
  EventQueue q;
  std::vector<int> order;
  constexpr SimTime kT = 5000;
  constexpr int kRun = 64;

  std::vector<EventQueue::TimerId> timers;
  for (int i = 0; i < kRun; ++i) {
    if (i % 3 == 1) {
      timers.push_back(q.CreateTimer([&order, i] { order.push_back(i); }));
      q.ArmTimer(timers.back(), kT);
    } else {
      q.Push(kT, [&order, i] { order.push_back(i); });
    }
  }
  // A few stragglers behind the run keep the heap non-trivial.
  q.Push(kT + 1, [&order] { order.push_back(1000); });
  q.Push(kT + 2, [&order] { order.push_back(1001); });

  while (!q.empty()) {
    q.Pop().Run();
  }
  ASSERT_EQ(order.size(), size_t{kRun + 2});
  for (int i = 0; i < kRun; ++i) {
    EXPECT_EQ(order[i], i) << "same-timestamp events must fire in insertion order";
  }
  EXPECT_EQ(order[kRun], 1000);
  EXPECT_EQ(order[kRun + 1], 1001);
}

TEST(EventCoreBatching, CancelInsideSameTimestampRun) {
  // Event 0 (at T) cancels a timer also scheduled at T that has not fired
  // yet: the timer must not fire, the pop count must stay exact, and the
  // remaining events keep FIFO order.
  EventQueue q;
  std::vector<int> order;
  constexpr SimTime kT = 777;

  EventQueue::TimerId victim = q.CreateTimer([&order] { order.push_back(-1); });
  EventQueue::TimerId mover = q.CreateTimer([&order] { order.push_back(-2); });
  q.Push(kT, [&] {
    order.push_back(0);
    EXPECT_TRUE(q.CancelTimer(victim));
    q.ArmTimer(mover, kT + 50);  // re-arm out of the live run
  });
  q.ArmTimer(victim, kT);
  q.ArmTimer(mover, kT);
  for (int i = 1; i <= 24; ++i) {  // bulk up the equal-when run
    q.Push(kT, [&order, i] { order.push_back(i); });
  }

  uint64_t pops = 0;
  while (!q.empty()) {
    q.Pop().Run();
    ++pops;
  }
  // 1 canceller + 24 one-shots + the moved timer; the victim never fires.
  EXPECT_EQ(pops, 26u);
  ASSERT_EQ(order.size(), 26u);
  EXPECT_EQ(order[0], 0);
  for (int i = 1; i <= 24; ++i) {
    EXPECT_EQ(order[i], i);
  }
  EXPECT_EQ(order[25], -2);  // the rescheduled timer fires at kT + 50
  EXPECT_FALSE(q.TimerPending(victim));
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Ns(5), [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  SimTime fired_at = 0;
  sim.Schedule(Ns(10), [&] {
    sim.Schedule(Ns(10), [&] { fired_at = sim.now(); });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(fired_at, Ns(20));
}

TEST(Simulator, RunForAdvancesClockToHorizon) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Ns(100), [&] { ++fired; });
  sim.RunFor(Ns(50));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), Ns(50));
  sim.RunFor(Ns(50));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilStopsAtPredicate) {
  Simulator sim;
  int counter = 0;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Ns(i + 1), [&] { ++counter; });
  }
  EXPECT_TRUE(sim.RunUntil([&] { return counter == 5; }));
  EXPECT_EQ(counter, 5);
  EXPECT_FALSE(sim.RunUntil([&] { return counter == 100; }));
  EXPECT_EQ(counter, 10);
}

Task CountingTask(Simulator& sim, int* out) {
  co_await Delay(sim, Us(1));
  *out += 1;
  co_await Delay(sim, Us(2));
  *out += 10;
}

TEST(Task, DelaysAdvanceSimulatedTime) {
  Simulator sim;
  int state = 0;
  sim.Spawn(CountingTask(sim, &state));
  EXPECT_EQ(state, 0);
  sim.RunUntilIdle();
  EXPECT_EQ(state, 11);
  EXPECT_EQ(sim.now(), Us(3));
  EXPECT_EQ(sim.pending_tasks(), 0u);
}

ValueTask<int> InnerValue(Simulator& sim) {
  co_await Delay(sim, Ns(500));
  co_return 7;
}

Task OuterTask(Simulator& sim, int* out) {
  const int v = co_await InnerValue(sim);
  *out = v * 6;
}

TEST(Task, NestedAwaitPropagatesValues) {
  Simulator sim;
  int out = 0;
  sim.Spawn(OuterTask(sim, &out));
  sim.RunUntilIdle();
  EXPECT_EQ(out, 42);
}

Task Waiter(SimEvent& ev, std::vector<int>* log, int id) {
  co_await ev.Wait();
  log->push_back(id);
}

TEST(Task, SimEventReleasesAllWaiters) {
  Simulator sim;
  SimEvent ev(sim);
  std::vector<int> log;
  sim.Spawn(Waiter(ev, &log, 1));
  sim.Spawn(Waiter(ev, &log, 2));
  sim.RunUntilIdle();
  EXPECT_TRUE(log.empty());
  ev.Trigger();
  sim.RunUntilIdle();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(Task, EventFiredBeforeWaitDoesNotBlock) {
  Simulator sim;
  SimEvent ev(sim);
  ev.Trigger();
  std::vector<int> log;
  sim.Spawn(Waiter(ev, &log, 9));
  sim.RunUntilIdle();
  EXPECT_EQ(log, (std::vector<int>{9}));
}

TEST(Fifo, PushPopOrdering) {
  Fifo<int> f(4);
  EXPECT_TRUE(f.Empty());
  EXPECT_TRUE(f.Push(1));
  EXPECT_TRUE(f.Push(2));
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.Pop(), 1);
  EXPECT_EQ(f.Pop(), 2);
  EXPECT_TRUE(f.Empty());
}

TEST(Fifo, RejectsPushWhenFull) {
  Fifo<int> f(2);
  EXPECT_TRUE(f.Push(1));
  EXPECT_TRUE(f.Push(2));
  EXPECT_TRUE(f.Full());
  EXPECT_FALSE(f.Push(3));
  EXPECT_EQ(f.size(), 2u);
}

TEST(Fifo, HooksFireOnPushAndPop) {
  Fifo<int> f(2);
  int pushes = 0;
  int pops = 0;
  f.on_push = [&] { ++pushes; };
  f.on_pop = [&] { ++pops; };
  f.Push(1);
  f.Push(2);
  f.Pop();
  EXPECT_EQ(pushes, 2);
  EXPECT_EQ(pops, 1);
}

}  // namespace
}  // namespace strom
