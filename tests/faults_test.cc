// Tests for the fault-plan engine (src/faults/) and the error-path state
// machine it exercises: plan parsing, deterministic episode scheduling, and
// end-to-end QP error / flush / reconnect behaviour under injected faults.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/faults/fault_engine.h"
#include "src/faults/fault_plan.h"
#include "src/netsim/link.h"
#include "src/sim/simulator.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"
#include "src/workload/chaos_scenario.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

// --- plan parsing -----------------------------------------------------------

TEST(FaultPlan, ParsesEpisodesAndRoundTrips) {
  const std::string text =
      "# comment line\n"
      "seed 7\n"
      "link0 burst_loss 10us 4ms p_gb=0.02 p_bg=0.3 loss_good=0 loss_bad=0.5\n"
      "link* jitter 0us - max=2us\n"
      "link1 reorder 1ms 2ms p=0.1 delay=5us\n"
      "link* duplicate 0us - p=0.01\n"
      "link0 down 100us 200us\n"
      "dma1 read_error 1ms 2ms p=0.1\n"
      "dma* write_error 0us - p=0.05\n";
  Result<FaultPlan> plan = FaultPlan::Parse(text);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->seed, 7u);
  ASSERT_EQ(plan->episodes.size(), 7u);

  const FaultEpisode& burst = plan->episodes[0];
  EXPECT_EQ(burst.type, FaultType::kBurstLoss);
  EXPECT_EQ(burst.target, 0);
  EXPECT_EQ(burst.start, Us(10));
  EXPECT_EQ(burst.end, Ms(4));
  EXPECT_DOUBLE_EQ(burst.p_good_to_bad, 0.02);
  EXPECT_DOUBLE_EQ(burst.p_bad_to_good, 0.3);
  EXPECT_DOUBLE_EQ(burst.loss_bad, 0.5);

  const FaultEpisode& jitter = plan->episodes[1];
  EXPECT_EQ(jitter.type, FaultType::kJitter);
  EXPECT_EQ(jitter.target, -1);       // link* = every side
  EXPECT_EQ(jitter.end, SimTime(-1));  // "-" = open-ended
  EXPECT_EQ(jitter.delay, Us(2));

  EXPECT_EQ(plan->episodes[4].type, FaultType::kLinkDown);
  EXPECT_EQ(plan->episodes[5].type, FaultType::kDmaReadError);
  EXPECT_EQ(plan->episodes[5].target, 1);
  EXPECT_EQ(plan->episodes[6].type, FaultType::kDmaWriteError);
  EXPECT_EQ(plan->episodes[6].target, -1);

  // A decimal time reads as the nearest picosecond: 0.3us is 300 ns.
  EXPECT_EQ(FaultPlan::Parse("link0 down 0.3us -\n")->episodes.at(0).start, Ns(300));

  // ToString() -> Parse() must reproduce the plan exactly.
  Result<FaultPlan> again = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->ToString(), plan->ToString());
  EXPECT_EQ(again->seed, plan->seed);
  ASSERT_EQ(again->episodes.size(), plan->episodes.size());
}

TEST(FaultPlan, RejectsMalformedInput) {
  // Unknown fault type.
  EXPECT_FALSE(FaultPlan::Parse("link0 meteor_strike 0us -\n").ok());
  // DMA targets only take dma fault types.
  EXPECT_FALSE(FaultPlan::Parse("dma0 burst_loss 0us - p_gb=0.1 p_bg=0.1\n").ok());
  // Link targets only take link fault types.
  EXPECT_FALSE(FaultPlan::Parse("link0 read_error 0us - p=0.5\n").ok());
  // End before start.
  EXPECT_FALSE(FaultPlan::Parse("link0 down 5ms 1ms\n").ok());
  // Probability out of range.
  EXPECT_FALSE(FaultPlan::Parse("link0 duplicate 0us - p=1.5\n").ok());
  // Bad time unit.
  EXPECT_FALSE(FaultPlan::Parse("link0 down 10parsecs 20us\n").ok());
  // Bad target.
  EXPECT_FALSE(FaultPlan::Parse("nvme0 down 0us -\n").ok());
  // Input that used to parse as something else: an index past int (read as
  // link1), an end time past SimTime, infinite or NaN (read as open-ended), a
  // NaN probability, a negative seed (read as 2^64 - 5), a time between
  // whole nanoseconds (written back as another time), and a key the type
  // never reads. Each error names its line.
  for (const char* text :
       {"seed 1\nlink4294967297 down 1us 2us\n", "seed 1\nlink0 down 1us 1e300s\n",
        "seed 1\nlink0 down 1us infs\n", "seed 1\nlink0 down 1us nanus\n",
        "seed 1\nlink0 duplicate 0us - p=nan\n",
        "seed 1\nlink0 burst_loss 0us - p_gb=nan p_bg=0.3 loss_good=0 loss_bad=0.5\n",
        "link0 down 0us -\nseed -5\n", "seed 1\nlink0 down 1.5ns 2us\n",
        "seed 1\nlink0 down 0us 1ms p=0.5\n", "seed 1\nlink0 jitter 0us - max=2us p_gb=0.3\n",
        "seed 1\ndma0 read_error 0us - p=0.1 max=5us\n"}) {
    const Result<FaultPlan> plan = FaultPlan::Parse(text);
    ASSERT_FALSE(plan.ok()) << text;
    EXPECT_NE(plan.status().message().find("line 2: "), std::string::npos) << plan.status();
  }
}

TEST(FaultPlan, EpisodeActivationWindow) {
  FaultEpisode ep;
  ep.start = Us(10);
  ep.end = Us(20);
  EXPECT_FALSE(ep.ActiveAt(Us(9)));
  EXPECT_TRUE(ep.ActiveAt(Us(10)));
  EXPECT_TRUE(ep.ActiveAt(Us(19)));
  EXPECT_FALSE(ep.ActiveAt(Us(20)));

  FaultEpisode open;
  open.start = Us(5);
  open.end = -1;
  EXPECT_TRUE(open.ActiveAt(Ms(100)));

  FaultEpisode wildcard;
  wildcard.target = -1;
  EXPECT_TRUE(wildcard.Matches(0));
  EXPECT_TRUE(wildcard.Matches(7));
  FaultEpisode pinned;
  pinned.target = 3;
  EXPECT_FALSE(pinned.Matches(0));
  EXPECT_TRUE(pinned.Matches(3));
}

TEST(FaultPlan, ParsesCrashEpisodesAndRoundTrips) {
  const std::string text =
      "seed 9\n"
      "host1 crash 300us - restart_after=150us\n"
      "nic0 crash 50us -\n"
      "switch0 crash 1ms - restart_after=20us\n"
      "host* crash 2ms -\n";
  Result<FaultPlan> plan = FaultPlan::Parse(text);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->episodes.size(), 4u);

  const FaultEpisode& host = plan->episodes[0];
  EXPECT_EQ(host.type, FaultType::kHostCrash);
  EXPECT_EQ(host.target, 1);
  EXPECT_EQ(host.start, Us(300));
  EXPECT_EQ(host.restart_after, Us(150));
  EXPECT_TRUE(IsCrashFault(host.type));
  EXPECT_EQ(FaultTargetKindOf(host.type), FaultTargetKind::kHost);

  const FaultEpisode& nic = plan->episodes[1];
  EXPECT_EQ(nic.type, FaultType::kNicCrash);
  EXPECT_EQ(nic.restart_after, SimTime(-1)) << "no restart_after = crash-stop";
  EXPECT_EQ(FaultTargetKindOf(nic.type), FaultTargetKind::kNic);

  EXPECT_EQ(plan->episodes[2].type, FaultType::kSwitchCrash);
  EXPECT_EQ(plan->episodes[3].target, -1);  // host* wildcard

  Result<FaultPlan> again = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->ToString(), plan->ToString());

  // Crash types belong to node/switch targets only, and vice versa.
  EXPECT_FALSE(FaultPlan::Parse("link0 crash 0us -\n").ok());
  EXPECT_FALSE(FaultPlan::Parse("host0 down 0us -\n").ok());
  EXPECT_FALSE(FaultPlan::Parse("switch0 read_error 0us - p=1\n").ok());
}

TEST(FaultPlan, MakeCrashPlanIsDeterministicSparesNode0AndRoundTrips) {
  const FaultPlan a = MakeCrashPlan(11, Ms(2), 4, 2);
  EXPECT_EQ(a.ToString(), MakeCrashPlan(11, Ms(2), 4, 2).ToString());
  EXPECT_NE(a.ToString(), MakeCrashPlan(12, Ms(2), 4, 2).ToString());
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const FaultPlan plan = MakeCrashPlan(seed, Ms(2), 4, 2);
    ASSERT_FALSE(plan.episodes.empty());
    bool has_crash = false;
    for (const FaultEpisode& ep : plan.episodes) {
      if (!IsCrashFault(ep.type)) {
        continue;
      }
      has_crash = true;
      if (ep.type != FaultType::kSwitchCrash) {
        EXPECT_NE(ep.target, 0) << "node 0 is the canonical survivor";
        EXPECT_GE(ep.restart_after, 0) << "crash plans are crash-recovery";
      }
    }
    EXPECT_TRUE(has_crash) << "seed " << seed;
    Result<FaultPlan> replay = FaultPlan::Parse(plan.ToString());
    ASSERT_TRUE(replay.ok()) << replay.status();
    EXPECT_EQ(replay->ToString(), plan.ToString()) << "seed " << seed;
  }
}

TEST(FaultPlan, MakeRandomPlanIsDeterministicAndParses) {
  const FaultPlan a = MakeRandomPlan(42, Ms(10));
  const FaultPlan b = MakeRandomPlan(42, Ms(10));
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_FALSE(a.episodes.empty());

  const FaultPlan c = MakeRandomPlan(43, Ms(10));
  EXPECT_NE(a.ToString(), c.ToString());

  // Generated plans must survive the text round trip exactly, probabilities
  // included: a reproducer is replayed from its text form.
  Result<FaultPlan> replay = FaultPlan::Parse(a.ToString());
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->ToString(), a.ToString());
  ASSERT_EQ(replay->episodes.size(), a.episodes.size());
  for (size_t i = 0; i < a.episodes.size(); ++i) {
    EXPECT_EQ(replay->episodes[i].p, a.episodes[i].p);
    EXPECT_EQ(replay->episodes[i].p_good_to_bad, a.episodes[i].p_good_to_bad);
    EXPECT_EQ(replay->episodes[i].loss_bad, a.episodes[i].loss_bad);
  }
}

// --- fault engine on a bare link -------------------------------------------

TEST(FaultEngine, LinkDownEpisodeDropsOnlyInsideWindow) {
  auto plan = std::make_shared<FaultPlan>();
  FaultEpisode ep;
  ep.type = FaultType::kLinkDown;
  ep.target = -1;
  ep.start = Us(10);
  ep.end = Us(20);
  plan->episodes.push_back(ep);

  Simulator sim;
  PointToPointLink link(sim, LinkConfig{});
  FaultEngine engine(sim, plan);
  engine.AttachLink(link, 0);

  int received = 0;
  link.Attach(1, [&](FrameBuf, TraceContext) { ++received; });
  const auto send = [&] { link.Send(0, FrameBuf::Adopt(ByteBuffer(100, 0))); };
  sim.ScheduleAt(Us(0), send);   // before the window: delivered
  sim.ScheduleAt(Us(15), send);  // inside: dropped
  sim.ScheduleAt(Us(25), send);  // after: delivered
  sim.RunUntilIdle();

  EXPECT_EQ(received, 2);
  EXPECT_EQ(engine.counters().frames_dropped, 1u);
  EXPECT_EQ(link.counters(0).frames_dropped, 1u);
}

TEST(FaultEngine, SameSeedSameDecisions) {
  const std::string text =
      "seed 11\n"
      "link* burst_loss 0us - p_gb=0.1 p_bg=0.3 loss_good=0.02 loss_bad=0.6\n"
      "link* duplicate 0us - p=0.05\n"
      "link* reorder 0us - p=0.05 delay=3us\n";

  const auto run = [&](uint64_t seed) {
    Result<FaultPlan> parsed = FaultPlan::Parse(text);
    STROM_CHECK(parsed.ok());
    auto plan = std::make_shared<FaultPlan>(std::move(*parsed));
    plan->seed = seed;
    Simulator sim;
    PointToPointLink link(sim, LinkConfig{});
    FaultEngine engine(sim, plan);
    engine.AttachLink(link, 0);
    uint64_t received = 0;
    link.Attach(1, [&](FrameBuf, TraceContext) { ++received; });
    for (int i = 0; i < 500; ++i) {
      link.Send(0, FrameBuf::Adopt(ByteBuffer(256, uint8_t(i))));
    }
    sim.RunUntilIdle();
    return std::make_tuple(received, engine.counters().frames_dropped,
                           engine.counters().frames_duplicated,
                           engine.counters().frames_delayed);
  };

  const auto a = run(5);
  EXPECT_EQ(a, run(5)) << "same seed must reproduce every per-frame decision";
  EXPECT_NE(a, run(6)) << "different seed should diverge (statistically certain)";

  // The plan actually did something.
  EXPECT_GT(std::get<1>(a), 0u);
  EXPECT_GT(std::get<2>(a), 0u);
}

// --- end-to-end error paths through the testbed -----------------------------

TEST(FaultE2e, ResponderDmaReadErrorNaksAndErrorsRequesterQp) {
  // All payload fetches on node 1 fail: a READ from node 0 must complete
  // with an error (NAK remote operational error -> QP Error -> flush), not
  // hang.
  Result<FaultPlan> plan = FaultPlan::Parse("seed 1\ndma1 read_error 0us - p=1\n");
  ASSERT_TRUE(plan.ok()) << plan.status();

  Testbed bed(Profile10G());
  bed.ApplyFaultPlan(std::make_shared<const FaultPlan>(std::move(*plan)));
  bed.ConnectQp(0, kQp, 1, kQp);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;

  bool done = false;
  Status completion;
  bed.node(0).driver().PostRead(kQp, local, remote, 4096, [&](Status st) {
    done = true;
    completion = st;
  });
  bed.sim().RunUntil([&] { return done; });
  bed.sim().RunUntilIdle();

  ASSERT_TRUE(done) << "errored READ must still complete";
  EXPECT_FALSE(completion.ok());
  EXPECT_EQ(bed.node(0).stack().counters().rx_operational_errors, 1u);
  EXPECT_EQ(bed.node(0).stack().counters().qp_errors, 1u);
  EXPECT_GT(bed.fault_engine()->counters().dma_read_errors, 0u);
}

TEST(FaultE2e, ResponderDmaWriteErrorNaksWrite) {
  Result<FaultPlan> plan = FaultPlan::Parse("seed 1\ndma1 write_error 0us - p=1\n");
  ASSERT_TRUE(plan.ok()) << plan.status();

  Testbed bed(Profile10G());
  bed.ApplyFaultPlan(std::make_shared<const FaultPlan>(std::move(*plan)));
  bed.ConnectQp(0, kQp, 1, kQp);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  ASSERT_TRUE(bed.node(0).driver().WriteHost(local, RandomBytes(512, 9)).ok());

  bool done = false;
  Status completion;
  bed.node(0).driver().PostWrite(kQp, local, remote, 512, [&](Status st) {
    done = true;
    completion = st;
  });
  bed.sim().RunUntil([&] { return done; });
  bed.sim().RunUntilIdle();

  ASSERT_TRUE(done);
  EXPECT_FALSE(completion.ok());
  EXPECT_EQ(bed.node(0).stack().counters().rx_operational_errors, 1u);
  EXPECT_GT(bed.fault_engine()->counters().dma_write_errors, 0u);
}

TEST(FaultE2e, RetryExhaustionErrorsQpAndReconnectResumesTraffic) {
  // The acceptance scenario: a link flap longer than the retry budget moves
  // the QP to Error, the in-flight WR completes with an error through the
  // host callback, and after ReconnectQp (PSN resync) traffic resumes.
  Profile p = Profile10G();
  p.roce.retry_limit = 2;
  p.roce.retransmission_timeout = Us(100);

  Result<FaultPlan> plan = FaultPlan::Parse("seed 3\nlink* down 50us 5ms\n");
  ASSERT_TRUE(plan.ok()) << plan.status();

  Testbed bed(p);
  bed.ApplyFaultPlan(std::make_shared<const FaultPlan>(std::move(*plan)));
  bed.ConnectQp(0, kQp, 1, kQp);
  RoceDriver& drv = bed.node(0).driver();
  const VirtAddr local = drv.AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  const ByteBuffer payload = RandomBytes(2048, 4);
  ASSERT_TRUE(drv.WriteHost(local, payload).ok());

  std::vector<Qpn> errored_qps;
  drv.SetQpErrorHandler([&](Qpn qpn, const Status& st) {
    errored_qps.push_back(qpn);
    EXPECT_FALSE(st.ok());
  });

  int completions = 0;
  Status first_completion;
  bed.sim().ScheduleAt(Us(100), [&] {  // posted mid-outage
    drv.PostWrite(kQp, local, remote, 2048, [&](Status st) {
      ++completions;
      first_completion = st;
    });
  });
  bed.sim().RunUntil([&] { return completions > 0; });

  // retry_limit=2 with 100us RTO: timeouts at ~200us/400us/800us exhaust the
  // budget well inside the 5ms outage.
  ASSERT_EQ(completions, 1) << "flushed WR must complete exactly once";
  EXPECT_FALSE(first_completion.ok());
  ASSERT_EQ(errored_qps.size(), 1u) << "QP error handler must fire once";
  EXPECT_EQ(errored_qps[0], kQp);
  EXPECT_EQ(bed.node(0).stack().counters().qp_errors, 1u);
  EXPECT_EQ(bed.node(0).stack().counters().wrs_flushed, 1u);

  // Ride out the outage, resync both ends, and verify traffic flows again.
  bed.sim().RunFor(Ms(6));
  bed.ReconnectQp(0, kQp, 1, kQp);
  EXPECT_EQ(bed.node(0).stack().counters().qp_resets, 1u);

  bool again = false;
  drv.PostWrite(kQp, local, remote, 2048, [&](Status st) {
    EXPECT_TRUE(st.ok()) << st;
    again = true;
  });
  bed.sim().RunUntil([&] { return again; });
  bed.sim().RunUntilIdle();
  ASSERT_TRUE(again);
  EXPECT_EQ(*bed.node(1).driver().ReadHost(remote, payload.size()), payload);
  // Exactly one error episode: the post-reconnect write succeeded cleanly.
  EXPECT_EQ(bed.node(0).stack().counters().qp_errors, 1u);
}

TEST(FaultE2e, PlanAppliedToSwitchTopologyTargetsPerPortSides) {
  // In a 3-host single-leaf fabric, link k (host k's cable) is global sides
  // 2k (host side) / 2k+1 (switch side). Downing only host 2's sides must
  // leave host0 <-> host1 traffic untouched.
  Result<FaultPlan> plan = FaultPlan::Parse(
      "seed 1\n"
      "link4 down 0us -\n"
      "link5 down 0us -\n");
  ASSERT_TRUE(plan.ok()) << plan.status();

  FabricTopologyConfig topo;
  topo.num_hosts = 3;
  Fabric bed(Profile10G(), topo);
  bed.ApplyFaultPlan(std::make_shared<const FaultPlan>(std::move(*plan)));
  bed.ConnectQp(0, kQp, 1, kQp);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  const ByteBuffer data = RandomBytes(1024, 2);
  ASSERT_TRUE(bed.node(0).driver().WriteHost(local, data).ok());

  bool done = false;
  bed.node(0).driver().PostWrite(kQp, local, remote, 1024, [&](Status st) {
    EXPECT_TRUE(st.ok()) << st;
    done = true;
  });
  bed.sim().RunUntil([&] { return done; });
  bed.sim().RunUntilIdle();
  ASSERT_TRUE(done);
  EXPECT_EQ(*bed.node(1).driver().ReadHost(remote, data.size()), data);
  EXPECT_EQ(bed.fault_engine()->counters().frames_dropped, 0u);
}

// --- crash-restart failure domain -------------------------------------------

// --- plan targets the topology lacks -----------------------------------------
// ApplyFaultPlan dies on the first episode CheckFaultPlan rejects; calling the
// check directly keeps it in this process, where coverage sees it.

Status CheckPlanLine(const Topology& topology, const std::string& line) {
  Result<FaultPlan> plan = FaultPlan::Parse("seed 1\n" + line + "\n");
  EXPECT_TRUE(plan.ok()) << plan.status();
  return plan.ok() ? topology.CheckFaultPlan(*plan) : plan.status();
}

void ExpectRejectedNamingEpisode(const Topology& topology, const std::string& line) {
  const Status st = CheckPlanLine(topology, line);
  EXPECT_FALSE(st.ok()) << line;
  EXPECT_NE(st.message().find("fault plan episode '" + line + "'"), std::string::npos) << st;
}

TEST(FaultPlanTargets, CableRejectsComponentsItLacks) {
  // One link (sides 0 and 1), two hosts, no switches.
  Testbed bed(Profile10G());
  for (const char* line :
       {"link1 down 10us 20us", "dma1 read_error 10us - p=0.1", "host1 crash 10us -",
        "nic0 crash 10us - restart_after=5us", "link* jitter 10us - max=1us",
        "switch* crash 1ms -"}) {
    EXPECT_TRUE(CheckPlanLine(bed, line).ok()) << line;
  }
  for (const char* line : {"link2 down 10us 20us", "link40 down 10us -",
                           "dma2 write_error 10us - p=0.5", "host9 crash 10us -",
                           "nic2 crash 10us -", "switch0 crash 1ms -"}) {
    ExpectRejectedNamingEpisode(bed, line);
  }
}

TEST(FaultPlanTargets, RackRejectsComponentsItLacks) {
  // A 3-host single-leaf rack: three host links (sides 0..5), one switch.
  FabricTopologyConfig rack;
  rack.num_hosts = 3;
  Fabric fabric(Profile10G(), rack);
  for (const char* line : {"link5 down 10us 20us", "dma2 read_error 10us - p=0.1",
                           "host2 crash 10us -", "switch0 crash 1ms - restart_after=5us"}) {
    EXPECT_TRUE(CheckPlanLine(fabric, line).ok()) << line;
  }
  for (const char* line :
       {"link6 down 10us 20us", "dma3 read_error 10us - p=0.1", "host9 crash 10us -",
        "nic3 crash 10us -", "switch1 crash 1ms -", "switch4 crash 1ms -"}) {
    ExpectRejectedNamingEpisode(fabric, line);
  }

  // Two leaves and two spines: each leaf owns two host links and two
  // uplinks (sides 0..15), and the spines are switches 2 and 3.
  FabricTopologyConfig leaf_spine;
  leaf_spine.num_hosts = 4;
  leaf_spine.num_leaves = 2;
  leaf_spine.num_spines = 2;
  Fabric two_tier(Profile10G(), leaf_spine);
  EXPECT_TRUE(CheckPlanLine(two_tier, "link15 down 10us 20us").ok());
  EXPECT_TRUE(CheckPlanLine(two_tier, "switch3 crash 1ms -").ok());
  ExpectRejectedNamingEpisode(two_tier, "link16 down 10us 20us");
  ExpectRejectedNamingEpisode(two_tier, "switch4 crash 1ms -");
}

TEST(CrashE2e, LocalNicCrashFlushesInFlightWriteAndCountsArmedTimers) {
  // nic0 dies mid-WRITE. The crash must flush the in-flight WR with an
  // errored completion at the crash instant (exactly one terminal state) and
  // census the armed retransmission/pacing timers it mass-cancels.
  Result<FaultPlan> plan =
      FaultPlan::Parse("seed 1\nnic0 crash 150us - restart_after=500us\n");
  ASSERT_TRUE(plan.ok()) << plan.status();

  Testbed bed(Profile10G());
  bed.ApplyFaultPlan(std::make_shared<const FaultPlan>(std::move(*plan)));
  int crash_events = 0;
  int restart_events = 0;
  bed.AddCrashListener([&](const FaultEpisode& ep, bool restarted) {
    EXPECT_EQ(ep.type, FaultType::kNicCrash);
    EXPECT_EQ(ep.target, 0);
    (restarted ? restart_events : crash_events) += 1;
  });
  bed.ConnectQp(0, kQp, 1, kQp);
  RoceDriver& drv = bed.node(0).driver();
  const VirtAddr local = drv.AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  const ByteBuffer payload = RandomBytes(32768, 6);
  ASSERT_TRUE(drv.WriteHost(local, payload).ok());

  // 32KiB at 10G is ~26us of wire time: posted at 140us it is still in
  // flight when the NIC dies at 150us.
  int completions = 0;
  Status first;
  bed.sim().ScheduleAt(Us(140), [&] {
    drv.PostWrite(kQp, local, remote, payload.size(), [&](Status st) {
      ++completions;
      first = st;
    });
  });
  bed.sim().RunUntil([&] { return completions > 0; });

  ASSERT_EQ(completions, 1) << "crash flush must complete the WR exactly once";
  EXPECT_FALSE(first.ok());
  EXPECT_LE(bed.sim().now(), Us(151)) << "flush happens at the crash, not at RTO";
  const RoceCounters& c0 = bed.node(0).stack().counters();
  EXPECT_EQ(c0.crashes, 1u);
  EXPECT_GE(c0.timers_cancelled_at_crash, 1u) << "RTO timer was armed at the crash";
  EXPECT_GE(c0.wrs_flushed, 1u);
  EXPECT_EQ(crash_events, 1);

  // Ride out the restart (crash 150us + 500us), resync, verify traffic.
  bed.sim().RunFor(Ms(1));
  EXPECT_EQ(restart_events, 1);
  bed.ReconnectQp(0, kQp, 1, kQp);
  bool again = false;
  drv.PostWrite(kQp, local, remote, payload.size(), [&](Status st) {
    EXPECT_TRUE(st.ok()) << st;
    again = true;
  });
  bed.sim().RunUntil([&] { return again; });
  bed.sim().RunUntilIdle();
  ASSERT_TRUE(again);
  EXPECT_EQ(*bed.node(1).driver().ReadHost(remote, payload.size()), payload);
}

TEST(CrashE2e, PeerNicRestartFencesStaleEpochWithNak) {
  // nic1 dies and restarts while node 0 has a WRITE in flight. Node 0 keeps
  // retransmitting into the dead window; the retry that lands on the
  // restarted NIC hits the epoch tombstone and draws NAK(stale epoch), which
  // errors the requester QP instead of letting pre-crash bytes land in the
  // peer's fresh memory state.
  Result<FaultPlan> plan =
      FaultPlan::Parse("seed 1\nnic1 crash 150us - restart_after=200us\n");
  ASSERT_TRUE(plan.ok()) << plan.status();

  // Defaults: RTO 100us doubling, retry_limit 7 — the ~450us retry arrives
  // after the 350us restart and well inside the retry budget, so the QP
  // errors through the stale NAK, not through retry exhaustion.
  Testbed bed(Profile10G());
  bed.ApplyFaultPlan(std::make_shared<const FaultPlan>(std::move(*plan)));
  bed.ConnectQp(0, kQp, 1, kQp);
  RoceDriver& drv = bed.node(0).driver();
  const VirtAddr local = drv.AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  const ByteBuffer payload = RandomBytes(32768, 7);
  ASSERT_TRUE(drv.WriteHost(local, payload).ok());

  int completions = 0;
  Status first;
  bed.sim().ScheduleAt(Us(140), [&] {
    drv.PostWrite(kQp, local, remote, payload.size(), [&](Status st) {
      ++completions;
      first = st;
    });
  });
  bed.sim().RunUntil([&] { return completions > 0; });

  ASSERT_EQ(completions, 1);
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(bed.node(1).stack().counters().crashes, 1u);
  EXPECT_GE(bed.node(1).stack().counters().tx_stale_naks, 1u)
      << "restarted NIC must fence the stale-epoch retransmission";
  EXPECT_GE(bed.node(0).stack().counters().rx_stale_naks, 1u);
  EXPECT_EQ(bed.node(0).stack().counters().qp_errors, 1u);

  // A fresh handshake clears the tombstone and traffic resumes.
  bed.sim().RunUntilIdle();
  bed.ReconnectQp(0, kQp, 1, kQp);
  bool again = false;
  drv.PostWrite(kQp, local, remote, payload.size(), [&](Status st) {
    EXPECT_TRUE(st.ok()) << st;
    again = true;
  });
  bed.sim().RunUntil([&] { return again; });
  bed.sim().RunUntilIdle();
  ASSERT_TRUE(again);
  EXPECT_EQ(*bed.node(1).driver().ReadHost(remote, payload.size()), payload);
  EXPECT_EQ(bed.node(0).stack().counters().qp_errors, 1u);
}

TEST(CrashE2e, ReconnectRacesSecondCrashOfSamePeer) {
  // nic1 crashes, restarts at 200us, then crashes AGAIN at 220us — before
  // the survivors' exponential backoff (5,10,20,40,80us from detection at
  // ~110us) produces a reconnect attempt that sees it alive. The second
  // crash lands inside the backoff window of the first recovery; every
  // session op must still reach exactly one terminal state.
  Result<FaultPlan> plan = FaultPlan::Parse(
      "seed 5\n"
      "nic1 crash 100us - restart_after=100us\n"
      "nic1 crash 220us - restart_after=40us\n");
  ASSERT_TRUE(plan.ok()) << plan.status();

  const RackScenarioResult r = RunRackScenario(RackScenarioConfig::Small(), *plan);

  EXPECT_FALSE(r.outcome.violation)
      << r.outcome.violation_kind << ": " << r.outcome.detail;
  EXPECT_GT(r.report.ops_arrived, 0u);
  EXPECT_EQ(r.report.ops_arrived,
            r.report.ops_completed + r.report.ops_failed + r.report.ops_fenced);
  EXPECT_FALSE(r.report.deadline_hit);
  EXPECT_GE(r.report.peers_declared_dead, 2u);
  EXPECT_GE(r.report.reconnect_attempts, 2u)
      << "backoff must keep retrying across the second crash";
  EXPECT_GE(r.report.leases_acquired, 1u);
  EXPECT_EQ(r.frame_blocks_leaked, 0);
  EXPECT_EQ(r.audit_violations, 0u);
}

TEST(CrashE2e, LeaseProbeNoticesARestartShorterThanTheLeaseGap) {
  // nic1 is down for 1 us, between two of host 0's probes 10 us apart, so
  // no probe finds it dead. Its epoch moved, though: host 0's next probe
  // fails once, and the one after reconnects the 0<->1 lanes (host 0, the
  // lower index, owns that handshake).
  Result<FaultPlan> plan =
      FaultPlan::Parse("seed 22\nnic1 crash 104500ns - restart_after=1us\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  const RackScenarioConfig config = RackScenarioConfig::Small();
  Profile profile = Profile10G();
  profile.roce.max_qps = uint32_t(config.topo.num_hosts) * config.ycsb.qps_per_peer + 8;
  Fabric fabric(profile, config.topo);
  fabric.ApplyFaultPlan(std::make_shared<const FaultPlan>(std::move(*plan)));
  YcsbEngine engine(fabric, config.ycsb);
  engine.Setup();
  engine.EnableCrashRecovery(config.liveness);
  const YcsbReport r = engine.Run();

  const LivenessCounters& host0 = engine.liveness(0)->counters();
  EXPECT_EQ(host0.peers_declared_dead, 1u);
  EXPECT_EQ(host0.leases_acquired, 1u);
  // ReconnectQp reset each of host 0's lanes toward host 1; host 1's side
  // were crash tombstones, which a reset does not count.
  EXPECT_EQ(fabric.node(0).stack().counters().qp_resets, config.ycsb.qps_per_peer);
  EXPECT_EQ(r.ops_arrived, r.ops_completed + r.ops_failed + r.ops_fenced);
  EXPECT_FALSE(r.deadline_hit);
}

}  // namespace
}  // namespace strom
