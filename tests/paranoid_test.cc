// Paranoid-mode identity: STROM_PARANOID disables every fast-path cache,
// recomputes from wire bytes and cross-checks the memos. Since the caches are
// pure memoization, a fig05a-style latency ping and a fig11-style shuffle
// slice must produce byte-identical observable output — metrics dumps and
// pcapng capture digests — with the caches on and off. Any divergence means a
// cache changed simulated behavior, which is exactly what this mode exists to
// catch.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/common/paranoid.h"
#include "src/kernels/shuffle.h"
#include "src/sim/task.h"
#include "src/telemetry/telemetry.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"
#include "tests/sha256_test_util.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

// fig05a slice: WRITE then READ latency ping between the two nodes.
double RunLatencyPing(Testbed& bed) {
  RoceDriver& drv = bed.node(0).driver();
  const VirtAddr local = drv.AllocBuffer(KiB(64))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(KiB(64))->addr;
  STROM_CHECK(drv.WriteHost(local, RandomBytes(4096, 21)).ok());

  bool write_done = false;
  drv.PostWrite(kQp, local, remote, 4096, [&](Status st) {
    STROM_CHECK(st.ok()) << st;
    write_done = true;
  });
  bed.sim().RunUntil([&] { return write_done; });
  bool read_done = false;
  drv.PostRead(kQp, local, remote, 4096, [&](Status st) {
    STROM_CHECK(st.ok()) << st;
    read_done = true;
  });
  bed.sim().RunUntil([&] { return read_done; });
  return ToUs(bed.sim().now());
}

// fig11 slice: configure the shuffle kernel on node 1's NIC and stream a few
// thousand tuples through it via RDMA RPC WRITE.
double RunShuffleSlice(Testbed& bed) {
  const KernelConfig kc{bed.profile().roce.clock_ps, bed.profile().roce.data_width};
  STROM_CHECK(
      bed.node(1).engine().DeployKernel(std::make_unique<ShuffleKernel>(bed.sim(), kc)).ok());
  RoceDriver& drv = bed.node(0).driver();
  const VirtAddr resp = drv.AllocBuffer(KiB(64))->addr;
  const VirtAddr local = drv.AllocBuffer(MiB(1))->addr;
  const VirtAddr dest = bed.node(1).driver().AllocBuffer(MiB(4))->addr;

  ShuffleParams config;
  config.target_addr = resp;
  config.partition_bits = 4;
  config.region_base = dest;
  config.region_stride = KiB(128);
  drv.FillHost(resp, 8, 0);
  drv.PostRpc(kShuffleRpcOpcode, kQp, config.Encode());

  const ByteBuffer payload = TuplesToBytes(RandomTuples(4000, 31));
  STROM_CHECK(drv.WriteHost(local, payload).ok());
  drv.PostRpcWrite(kShuffleRpcOpcode, kQp, local, static_cast<uint32_t>(payload.size()));

  bool done = false;
  struct Ctx {
    RoceDriver& drv;
    VirtAddr addr;
    bool* done;
  };
  auto poll = [](Ctx c) -> Task {
    co_await c.drv.PollU64(c.addr, 0);
    *c.done = true;
  };
  bed.sim().Spawn(poll(Ctx{drv, resp, &done}));
  bed.sim().RunUntil([&] { return done; });
  bed.sim().RunUntilIdle();  // drain posted partition writes
  return ToUs(bed.sim().now());
}

struct TrialOutput {
  double ping_us = 0;
  double shuffle_us = 0;
  std::string metrics_csv;
  std::map<std::string, std::string> capture_digests;
};

TrialOutput RunTrial(const std::string& tag, bool paranoid) {
  const std::string prefix = ::testing::TempDir() + "/paranoid_" + tag;
  TelemetryCollector collector;
  const TestbedTelemetryDefaults saved = Testbed::telemetry_defaults;
  Testbed::telemetry_defaults.collector = &collector;
  Testbed::telemetry_defaults.capture_prefix = prefix;
  Testbed::telemetry_defaults.capture_runs = 2;

  SetParanoidMode(paranoid);
  TrialOutput out;
  {
    Testbed::run_ordinal = 0;
    Testbed bed(Profile10G());
    bed.ConnectQp(0, kQp, 1, kQp);
    out.ping_us = RunLatencyPing(bed);
  }
  {
    Testbed::run_ordinal = 1;
    Testbed bed(Profile10G());
    bed.ConnectQp(0, kQp, 1, kQp);
    out.shuffle_us = RunShuffleSlice(bed);
  }
  Testbed::run_ordinal = -1;
  SetParanoidMode(false);

  Testbed::telemetry_defaults = saved;
  out.metrics_csv = collector.MetricsCsv();
  for (int run = 0; run < 2; ++run) {
    const std::string run_part = run == 0 ? "" : ".run" + std::to_string(run);
    for (const char* kind : {"wire", "node0.nic", "node1.nic"}) {
      const std::string suffix = run_part + "." + kind + ".pcapng";
      out.capture_digests[suffix] = Sha256File(prefix + suffix);
    }
  }
  return out;
}

TEST(ParanoidIdentity, FastPathAndParanoidOutputsAreByteIdentical) {
  const TrialOutput fast = RunTrial("fast", /*paranoid=*/false);
  const TrialOutput paranoid = RunTrial("paranoid", /*paranoid=*/true);

  // The scenarios actually simulated something.
  EXPECT_GT(fast.ping_us, 0.0);
  EXPECT_GT(fast.shuffle_us, 0.0);

  // Simulated time, metrics dumps and wire captures must not change when the
  // caches are disabled: the fast path is memoization, not behavior.
  EXPECT_EQ(fast.ping_us, paranoid.ping_us);
  EXPECT_EQ(fast.shuffle_us, paranoid.shuffle_us);
  EXPECT_EQ(fast.metrics_csv, paranoid.metrics_csv);
  EXPECT_EQ(fast.capture_digests, paranoid.capture_digests);
}

TEST(ParanoidIdentity, EnvironmentVariableIsRespectedByAccessor) {
  // ParanoidMode() latches STROM_PARANOID on first use; SetParanoidMode is
  // the in-process override used above and by --paranoid. Whatever the
  // environment said, the override must win and be readable back.
  SetParanoidMode(true);
  EXPECT_TRUE(ParanoidMode());
  SetParanoidMode(false);
  EXPECT_FALSE(ParanoidMode());
}

}  // namespace
}  // namespace strom
