// Completion polling: RoceDriver::PollU64 parks on its word, and the write
// that overlaps the word schedules the wake at the poll's next re-read
// instant (DESIGN.md §13). The differentials run the loop a spinning host
// thread runs, one event per kPollInterval re-read, beside the wake on the
// same scenario.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/task.h"
#include "src/testbed/calibration.h"
#include "src/testbed/testbed.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

// The loop a spinning host thread runs: re-read the word every
// kPollInterval, one event per re-read.
ValueTask<uint64_t> ReferencePollU64(RoceDriver& drv, VirtAddr addr, uint64_t sentinel) {
  while (true) {
    const uint64_t value = drv.ReadHostU64(addr);
    if (value != sentinel) {
      co_return value;
    }
    co_await Delay(drv.sim(), kPollInterval);
  }
}

struct PollCompletion {
  int poller;
  SimTime at;
  uint64_t value;
  uint64_t events;  // events_processed() at the completion
};

// Polls `addr` `rounds` times with sentinels 0, 1, ... and records each
// completion in order.
Task PollRounds(RoceDriver& drv, bool reference, int id, VirtAddr addr, int rounds,
                std::vector<PollCompletion>* out) {
  for (int r = 0; r < rounds; ++r) {
    uint64_t value;
    if (reference) {
      value = co_await ReferencePollU64(drv, addr, r);
    } else {
      value = co_await drv.PollU64(addr, r);
    }
    out->push_back({id, drv.sim().now(), value, drv.sim().events_processed()});
  }
}

struct PollRun {
  std::vector<PollCompletion> completions;
  std::vector<std::pair<SimTime, int>> writes;  // (instant, word id) of each write
  uint64_t events = 0;
};

void ExpectSameCompletions(const std::vector<PollCompletion>& got,
                           const std::vector<PollCompletion>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].poller, want[i].poller) << "completion " << i;
    EXPECT_EQ(got[i].at, want[i].at) << "completion " << i << ", poller " << want[i].poller;
    EXPECT_EQ(got[i].value, want[i].value) << "completion " << i << ", poller " << want[i].poller;
  }
}

// Records the instant of every write to one word and stays armed.
class WriteSpy final : public HostMemory::WordWatch {
 public:
  WriteSpy(Simulator& sim, HostMemory& mem, PhysAddr addr, int id,
           std::vector<std::pair<SimTime, int>>& log)
      : sim_(sim), mem_(mem), addr_(addr), id_(id), log_(log) {
    Arm(mem_, addr_);
  }

 private:
  void OnWrite() override {
    log_.emplace_back(sim_.now(), id_);
    Arm(mem_, addr_);
  }

  Simulator& sim_;
  HostMemory& mem_;
  PhysAddr addr_;
  int id_;
  std::vector<std::pair<SimTime, int>>& log_;
};

// Pollers on node 1 wait for host writes scripted against their tick grid
// and for RDMA WRITEs from node 0. Grid A ticks at kGridA + n * kPollInterval.
constexpr SimTime kGridA = Us(2) + Ps(123);
constexpr SimTime TickA(int n) { return kGridA + n * kPollInterval; }
constexpr SimTime kGridB = kGridA + Ns(13);

PollRun RunPollScenario(bool reference) {
  Testbed bed(Profile10G());
  bed.ConnectQp(0, kQp, 1, kQp);
  Simulator& sim = bed.sim();
  RoceDriver& src = bed.node(0).driver();
  RoceDriver& drv = bed.node(1).driver();
  const VirtAddr local = src.AllocBuffer(MiB(1))->addr;
  const VirtAddr words = drv.AllocBuffer(MiB(1))->addr;
  drv.FillHost(words, 4096, 0);
  auto word = [words](int id) { return words + 64 * static_cast<VirtAddr>(id); };

  PollRun run;
  auto spawn_at = [&](SimTime at, int id, int rounds) {
    sim.ScheduleAt(at, [&sim, &drv, &run, reference, id, rounds, addr = word(id)] {
      sim.Spawn(PollRounds(drv, reference, id, addr, rounds, &run.completions));
    });
  };
  auto host_write_at = [&](SimTime at, int id, uint64_t value) {
    sim.ScheduleAt(at, [&drv, addr = word(id), value] { drv.WriteHostU64(addr, value); });
  };
  // Takes the write's seq at `from`, for a write at `at`.
  auto host_write_from = [&](SimTime from, SimTime at, int id, uint64_t value) {
    sim.ScheduleAt(from, [&sim, &drv, at, addr = word(id), value] {
      sim.ScheduleAt(at, [&drv, addr, value] { drv.WriteHostU64(addr, value); });
    });
  };
  auto rdma_write_at = [&](SimTime at, int id, uint64_t value) {
    sim.ScheduleAt(at, [&src, value, from = local + 64 * static_cast<VirtAddr>(id),
                        to = word(id)] {
      src.WriteHostU64(from, value);
      src.PostWrite(kQp, from, to, 8);
    });
  };

  // Grid A: pollers 0-5 start together.
  for (int id = 0; id <= 5; ++id) {
    spawn_at(kGridA, id, 1);
  }
  host_write_at(TickA(3) + Ns(17), 0, 0xA0);               // between ticks: seen at tick 4
  host_write_from(TickA(4) - Ns(10), TickA(5), 1, 0xA1);  // on tick 5, seq before the loop's
  host_write_from(TickA(4) + Ns(10), TickA(5), 2, 0xA2);  // on tick 5, seq after the loop's
  host_write_at(TickA(6), 3, 0xA3);                        // seq taken at set-up: tick 6
  host_write_at(TickA(8) - Ns(10), 4, 0xA4);               // written after poller 5's word;
  host_write_at(TickA(8) - Ns(30), 5, 0xA5);               // both seen at tick 8

  // Poller 6 finds its word already written and never waits.
  host_write_at(kGridA - Ns(1), 6, 0xA6);
  spawn_at(kGridA, 6, 1);

  // Pollers 7 and 8 wait on RDMA WRITEs; poller 8 polls three rounds, fed by
  // a host write, an RDMA WRITE, and a host write on its own tick instant.
  spawn_at(kGridB, 7, 1);
  spawn_at(kGridB, 8, 3);
  rdma_write_at(Us(3), 7, 0xB7);
  host_write_at(Us(4) + Ns(1), 8, 1);
  rdma_write_at(Us(5), 8, 2);
  host_write_at(kGridB + 300 * kPollInterval, 8, 3);

  sim.RunUntilIdle();
  run.events = sim.events_processed();
  return run;
}

// The scripted scenario the poll lane matched the delay loop on, completion
// for completion. The wake differs from the loop only at same-picosecond
// ties, and the scenario builds two of them.
TEST(PollLaneDifferential, MatchesReferencePollLoop) {
  const PollRun ref = RunPollScenario(/*reference=*/true);
  const PollRun wake = RunPollScenario(/*reference=*/false);

  // The loop's tie rules: a tick takes its seq one interval ahead, so a
  // write queued after it at its instant is seen a tick later (poller 2),
  // and pollers that share a grid resume in grid order (4, then 5).
  ASSERT_EQ(ref.completions.size(), 11u);
  std::vector<int> order;
  for (const PollCompletion& c : ref.completions) {
    order.push_back(c.poller);
  }
  EXPECT_EQ(order, (std::vector<int>{6, 0, 1, 2, 3, 4, 5, 8, 7, 8, 8}));

  // The wake, completion by completion. Every wake takes its seq at the
  // write that schedules it, so poller 2 resumes at TickA(5), and pollers
  // 5 then 4 resume at TickA(8) in the order their words were written. The
  // RDMA-fed completions land off the grid, where the two rules agree.
  const std::vector<PollCompletion> expect = {
      {6, kGridA, 0xA6, 0},
      {0, TickA(4), 0xA0, 0},
      {1, TickA(5), 0xA1, 0},
      {2, TickA(5), 0xA2, 0},
      {3, TickA(6), 0xA3, 0},
      {5, TickA(8), 0xA5, 0},
      {4, TickA(8), 0xA4, 0},
      {8, ref.completions[7].at, 1, 0},
      {7, ref.completions[8].at, 0xB7, 0},
      {8, ref.completions[9].at, 2, 0},
      {8, kGridB + 300 * kPollInterval, 3, 0},
  };
  ExpectSameCompletions(wake.completions, expect);
  // Only the two ties moved.
  EXPECT_EQ(ref.completions[3].at, TickA(6));
  std::vector<PollCompletion> ref_untied = ref.completions;
  ref_untied[3].at = TickA(5);
  std::swap(ref_untied[5], ref_untied[6]);
  ExpectSameCompletions(wake.completions, ref_untied);

  // Poller 8's last round waits 180 ticks, from about 8 us to its grid's
  // tick 300, for a write on that tick's instant. The loop spends an event
  // per tick on it. The wake spends one, and the round three in all, the
  // write included.
  const uint64_t ref_round = ref.completions[10].events - ref.completions[9].events;
  const uint64_t wake_round = wake.completions[10].events - wake.completions[9].events;
  EXPECT_GT(ref_round, 150u);
  EXPECT_LE(wake_round, 3u);
  EXPECT_LT(wake.events * 5, ref.events);
}

// Seeded differential: pollers start on distinct grids, and host and RDMA
// writes land off every grid. There the two rules agree, so every
// completion must match, and the writes themselves must be the same.
//  - Each poller's word takes eight writes, 6-12 us apart, so they land in
//    order. Half are host writes and half RDMA WRITEs from node 0.
//  - A quarter rewrite the word's current value: the poll, parked on it as
//    its sentinel, wakes and parks again.
//  - An eighth write the next word instead, which the watch must ignore.
//  - Otherwise the value rises by one, ending a round.
PollRun RunRandomScenario(uint64_t seed, bool reference) {
  constexpr int kPollers = 12;
  constexpr int kWritesPerWord = 8;
  Testbed bed(Profile10G());
  bed.ConnectQp(0, kQp, 1, kQp);
  Simulator& sim = bed.sim();
  RoceDriver& src = bed.node(0).driver();
  RoceDriver& drv = bed.node(1).driver();
  const VirtAddr local = src.AllocBuffer(MiB(1))->addr;
  const VirtAddr words = drv.AllocBuffer(MiB(1))->addr;
  drv.FillHost(words, 4096, 0);
  auto word = [words](int id) { return words + 64 * static_cast<VirtAddr>(id); };

  PollRun run;
  std::vector<std::unique_ptr<WriteSpy>> spies;
  for (int id = 0; id < kPollers; ++id) {
    spies.push_back(std::make_unique<WriteSpy>(sim, bed.node(1).memory(),
                                               *bed.node(1).tlb().Translate(word(id)), id,
                                               run.writes));
  }

  // Poller p's grid sits Ps(1009 + 3989 p) past every multiple of kPollInterval.
  std::set<SimTime> grids;
  auto grid_of = [](int id) { return Ps(1009 + 3989 * id); };
  for (int id = 0; id < kPollers; ++id) {
    grids.insert(grid_of(id));
  }
  auto off_grid = [&grids](SimTime t) {
    while (grids.count(t % kPollInterval) != 0) {
      ++t;
    }
    return t;
  };

  Rng rng(seed);
  int finished = 0;
  int rdma_slot = 0;
  for (int id = 0; id < kPollers; ++id) {
    const SimTime start = Us(2 + rng.Below(10)) + grid_of(id);
    SimTime at = start + Us(1);
    uint64_t value = 0;
    for (int w = 0; w < kWritesPerWord; ++w) {
      at += Us(6) + Ps(rng.Below(Us(6)));
      const uint64_t r = rng.Below(8);
      VirtAddr to = word(id);
      uint64_t v = value + 1;
      if (r < 2) {
        v = value;  // the sentinel again
      } else if (r == 2) {
        to += 8;  // the next word: a miss
        v = 0xFFFF;
      }
      if (to == word(id)) {
        value = v;
      }
      if (rng.Below(2) == 0) {
        sim.ScheduleAt(off_grid(at), [&drv, to, v] { drv.WriteHostU64(to, v); });
      } else {
        const VirtAddr from = local + 8 * static_cast<VirtAddr>(rdma_slot++);
        sim.ScheduleAt(at, [&src, from, to, v] {
          src.WriteHostU64(from, v);
          src.PostWrite(kQp, from, to, 8);
        });
      }
    }
    const int rounds = static_cast<int>(value);
    sim.ScheduleAt(start, [&sim, &drv, &run, &finished, reference, id, rounds, addr = word(id)] {
      sim.Spawn([](RoceDriver& d, bool ref, int i, VirtAddr a, int n, PollRun* out,
                   int* done) -> Task {
        co_await PollRounds(d, ref, i, a, n, &out->completions);
        ++*done;
      }(drv, reference, id, addr, rounds, &run, &finished));
    });
  }
  sim.RunUntil([&finished] { return finished == kPollers; });
  EXPECT_EQ(finished, kPollers);
  run.events = sim.events_processed();
  for (const auto& [at, id] : run.writes) {
    EXPECT_EQ(grids.count(at % kPollInterval), 0u)
        << "a write to word " << id << " landed on a grid at " << at << " ps";
  }
  return run;
}

TEST(PollWakeDifferential, RandomOffGridWritesMatchReferencePollLoop) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    const PollRun ref = RunRandomScenario(seed, /*reference=*/true);
    const PollRun wake = RunRandomScenario(seed, /*reference=*/false);
    EXPECT_EQ(wake.writes, ref.writes);
    ExpectSameCompletions(wake.completions, ref.completions);
    EXPECT_GT(ref.completions.size(), 40u);
    EXPECT_GT(ref.writes.size(), 60u);
    EXPECT_LT(wake.events * 10, ref.events);
  }
}

// One node-1 word that tests poll and write.
class PollWakeTest : public ::testing::Test {
 protected:
  PollWakeTest() : bed_(std::make_unique<Testbed>(Profile10G())) {
    word_ = drv().AllocBuffer(MiB(2))->addr + 64;
    drv().WriteHostU64(word_, 0);
  }

  RoceDriver& drv() { return bed_->node(1).driver(); }
  Simulator& sim() { return bed_->sim(); }
  HostMemory& memory() { return bed_->node(1).memory(); }

  // Starts a poll of `addr` at `at` that records its value and instant.
  void PollAt(SimTime at, VirtAddr addr, uint64_t sentinel, PollCompletion* out) {
    sim().ScheduleAt(at, [this, addr, sentinel, out] {
      sim().Spawn([](RoceDriver& d, VirtAddr a, uint64_t s, PollCompletion* o) -> Task {
        o->value = co_await d.PollU64(a, s);
        o->at = d.sim().now();
      }(drv(), addr, sentinel, out));
    });
  }
  void WriteAt(SimTime at, uint64_t value) {
    sim().ScheduleAt(at, [this, value] { drv().WriteHostU64(word_, value); });
  }

  std::unique_ptr<Testbed> bed_;
  VirtAddr word_ = 0;
};

// A write of the sentinel wakes the poll, which reads the sentinel again and
// parks on the same grid; the next write ends it at that grid's next instant.
TEST_F(PollWakeTest, SentinelWriteReArmsOnTheSameGrid) {
  const SimTime t0 = Us(1) + Ps(7);
  PollCompletion got{0, -1, 0, 0};
  PollAt(t0, word_, 0, &got);
  WriteAt(t0 + Ns(120), 0);
  WriteAt(t0 + Ns(420), 9);
  const uint64_t before = sim().events_processed();
  sim().RunUntil([this] { return sim().now() >= Us(1) + Ns(150); });
  EXPECT_EQ(memory().armed_watches(), 1u) << "the sentinel wake re-armed the watch";
  EXPECT_EQ(got.at, -1);
  sim().RunUntilIdle();
  EXPECT_EQ(got.value, 9u);
  EXPECT_EQ(got.at, t0 + Ns(450));
  EXPECT_EQ(memory().armed_watches(), 0u);
  // The poll's start, two writes and two wakes: 9 ticks' worth of waiting.
  EXPECT_EQ(sim().events_processed() - before, 5u);
}

// k >= 1: a write at the instant the poll last read its word, queued after
// that read, is seen one interval later, where the re-read loop's next tick
// would see it. That holds at the poll's start and at a wake that re-armed.
TEST_F(PollWakeTest, WriteAtTheReadInstantIsSeenAnIntervalLater) {
  const SimTime t0 = Us(1);
  const VirtAddr other = word_ + 64;
  drv().WriteHostU64(other, 0);
  PollCompletion at_start{0, -1, 0, 0};
  PollCompletion at_wake{0, -1, 0, 0};
  PollAt(t0, word_, 0, &at_start);
  WriteAt(t0, 4);
  PollAt(t0, other, 0, &at_wake);
  sim().ScheduleAt(t0 + Ns(20), [this, other] { drv().WriteHostU64(other, 0); });
  sim().ScheduleAt(t0 + Ns(30), [this, t0, other] {
    sim().ScheduleAt(t0 + Ns(50), [this, other] { drv().WriteHostU64(other, 6); });
  });
  sim().RunUntilIdle();
  EXPECT_EQ(at_start.value, 4u);
  EXPECT_EQ(at_start.at, t0 + kPollInterval);
  EXPECT_EQ(at_wake.value, 6u);
  EXPECT_EQ(at_wake.at, t0 + 2 * kPollInterval);
}

// Two polls parked on one word, on different grids, both wake on one write,
// each at its own grid's next instant.
TEST_F(PollWakeTest, TwoPollersOnOneWordBothWake) {
  const SimTime t0 = Us(1);
  PollCompletion a{0, -1, 0, 0};
  PollCompletion b{0, -1, 0, 0};
  PollAt(t0, word_, 0, &a);
  PollAt(t0 + Ns(20), word_, 0, &b);
  WriteAt(t0 + Ns(130), 0x5A);
  sim().RunUntilIdle();
  EXPECT_EQ(a.value, 0x5Au);
  EXPECT_EQ(b.value, 0x5Au);
  EXPECT_EQ(a.at, t0 + Ns(150));
  EXPECT_EQ(b.at, t0 + Ns(170));
}

// A poll that nothing writes schedules nothing: the queue goes idle with the
// poll parked, where a spinning loop would never end.
TEST_F(PollWakeTest, UnwrittenWordLetsTheQueueGoIdle) {
  PollCompletion got{0, -1, 0, 0};
  PollAt(Us(1), word_, 0, &got);
  EXPECT_FALSE(sim().RunUntil([&got] { return got.at >= 0; }));
  EXPECT_EQ(sim().pending_events(), 0u);
  EXPECT_EQ(memory().armed_watches(), 1u);
}

// A word that straddles two huge pages spans two physical pages that are
// not adjacent, so one watch cannot cover it: the poll is rejected at its
// start, naming the address.
TEST(PollWakeDeathTest, StraddlingWordIsRejectedAtTheStart) {
  Testbed bed(Profile10G());
  RoceDriver& drv = bed.node(1).driver();
  const VirtAddr addr = drv.AllocBuffer(MiB(4))->addr + kHugePageSize - 4;
  std::ostringstream name;
  name << "PollU64 at 0x" << std::hex << addr << ": the word straddles two huge pages";
  EXPECT_DEATH(
      {
        bed.sim().Spawn([](RoceDriver& d, VirtAddr a) -> Task {
          co_await d.PollU64(a, 0);
        }(drv, addr));
      },
      name.str());
}

// Topology destroys its nodes, host memory included, before the simulator,
// which then drops pending events and destroys the suspended frames. A
// parked poll and a pending wake both survive that order (the sanitize job
// runs this under ASan).
TEST_F(PollWakeTest, TestbedDestroyedWithPollParked) {
  PollCompletion got{0, -1, 0, 0};
  PollAt(Us(1), word_, 0, &got);
  sim().RunUntilIdle();
  ASSERT_EQ(memory().armed_watches(), 1u);
  bed_.reset();
  EXPECT_EQ(got.at, -1);
}

TEST_F(PollWakeTest, TestbedDestroyedWithWakePending) {
  PollCompletion got{0, -1, 0, 0};
  PollAt(Us(1), word_, 0, &got);
  WriteAt(Us(1) + Ns(75), 3);
  sim().RunUntil([this] { return sim().now() >= Us(1) + Ns(75); });
  ASSERT_EQ(memory().armed_watches(), 0u);
  ASSERT_EQ(sim().pending_events(), 1u);  // the wake, at Us(1) + Ns(100)
  bed_.reset();
  EXPECT_EQ(got.at, -1);
}

}  // namespace
}  // namespace strom
