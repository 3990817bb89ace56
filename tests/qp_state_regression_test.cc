// Wire-identity regression for the per-QP state storage refactor (and, more
// broadly, for any change that is supposed to be inert on the default path —
// e.g. ECN/DCQCN machinery that is disabled by default). The fixed-size
// State/MSN tables were replaced with QPN-keyed pooled maps; that is a pure
// storage change, so a fig05a latency ping and a fig11 shuffle slice must
// still produce byte-for-byte the pcapng captures the seed produced. The
// SHA-256 digests below were recorded from the pre-refactor tree; if this
// test fails, the refactor changed simulated behavior, not just memory
// layout.
//
// Both of those run with DCQCN off. A second table pins a 4-host incast on
// a fabric, once with congestion control off (FIFO pick, tail drops,
// go-back-N) and once with ECN/DCQCN on (rate cuts and pacing deferrals), so
// a change to the TX pick or the payload fetch order shows up as a digest
// mismatch in either mode.
//
// To re-bless after an INTENTIONAL wire change, run with
// STROM_PRINT_DIGESTS=1 and paste the printed table.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "src/fabric/fabric.h"
#include "src/kernels/shuffle.h"
#include "src/sim/task.h"
#include "src/telemetry/telemetry.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"
#include "src/workload/ycsb.h"
#include "tests/sha256_test_util.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

// fig05a slice: WRITE then READ latency ping (same scenario as paranoid_test,
// duplicated on purpose — this test pins absolute digests, that one pins
// fast-vs-paranoid identity, and they must be free to evolve separately).
void RunLatencyPing(Testbed& bed) {
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
}

// fig11 slice: stream tuples through the shuffle kernel via RDMA RPC WRITE.
void RunShuffleSlice(Testbed& bed) {
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
  bed.sim().RunUntilIdle();
}

std::map<std::string, std::string> RunScenarios() {
  const std::string prefix = ::testing::TempDir() + "/qp_state_golden";
  const TestbedTelemetryDefaults saved = Testbed::telemetry_defaults;
  Testbed::telemetry_defaults.collector = nullptr;
  Testbed::telemetry_defaults.capture_prefix = prefix;
  Testbed::telemetry_defaults.capture_runs = 2;

  {
    Testbed::run_ordinal = 0;
    Testbed bed(Profile10G());
    bed.ConnectQp(0, kQp, 1, kQp);
    RunLatencyPing(bed);
  }
  {
    Testbed::run_ordinal = 1;
    Testbed bed(Profile10G());
    bed.ConnectQp(0, kQp, 1, kQp);
    RunShuffleSlice(bed);
  }
  Testbed::run_ordinal = -1;
  Testbed::telemetry_defaults = saved;

  std::map<std::string, std::string> digests;
  for (int run = 0; run < 2; ++run) {
    const std::string run_part = run == 0 ? "" : ".run" + std::to_string(run);
    for (const char* kind : {"wire", "node0.nic", "node1.nic"}) {
      const std::string suffix = run_part + "." + kind + ".pcapng";
      digests[suffix] = Sha256File(prefix + suffix);
    }
  }
  return digests;
}

// Digests of the seed (pre-refactor) captures. run0 = fig05a ping,
// run1 = fig11 shuffle slice.
const std::map<std::string, std::string> kGoldenDigests = {
    {".wire.pcapng", "37116689317c7e8053a2ccb026d8344dd52a6d3ca18ab424dc24365f240fd3bf"},
    {".node0.nic.pcapng", "5efc47998bd1c2c8beaafa548264d7a85da0418804ed164786541db107ff96b7"},
    {".node1.nic.pcapng", "7f407dd032d9b298c9ec80c63eecd0afe71304ef440037da643eab66cf7ff04e"},
    {".run1.wire.pcapng", "c86e68f7a06a182eefd9a1ef7fd3ea13a015f2617ebd9380f8687ecc64301c29"},
    {".run1.node0.nic.pcapng", "922d641c366738617aeaa76497ebd8f18e4304c9edd41eca48fb53907b655bf9"},
    {".run1.node1.nic.pcapng", "9fe4011e1ecb46c3035d5a6fd99852a373dfbe543371af190880c5c70f15ef0c"},
};

void ExpectDigests(const std::map<std::string, std::string>& got,
                   const std::map<std::string, std::string>& golden) {
  if (std::getenv("STROM_PRINT_DIGESTS") != nullptr) {
    for (const auto& [suffix, digest] : got) {
      std::printf("DIGEST %s %s\n", suffix.c_str(), digest.c_str());
    }
  }
  for (const auto& [suffix, want] : golden) {
    auto it = got.find(suffix);
    ASSERT_NE(it, got.end()) << suffix;
    EXPECT_EQ(it->second, want) << suffix;
  }
}

TEST(QpStateRegression, Fig05aAndFig11CapturesMatchSeedDigests) {
  ExpectDigests(RunScenarios(), kGoldenDigests);
}

// 3-to-1 incast into host 0 through one switch: ycsb_rack --hosts=4 --incast
// --cc=0|1 --ops-rate=1000000 --outstanding=256 --duration-us=2000
// --ecn-threshold=16384 --queue-bytes=40960.
YcsbReport RunIncast(bool cc_enabled) {
  YcsbConfig cfg;
  cfg.incast = true;
  cfg.ops_per_host_per_sec = 1e6;
  cfg.max_outstanding_per_host = 256;
  cfg.duration = Us(2000);

  Profile profile = Profile10G();
  profile.roce.max_qps = 4 * cfg.qps_per_peer + 8;
  profile.roce.ecn_capable = cc_enabled;
  profile.roce.dcqcn.enable = cc_enabled;

  FabricTopologyConfig topo;
  topo.num_hosts = 4;
  topo.sw.egress_queue_bytes = 40 * 1024;
  topo.sw.ecn_threshold_bytes = 16 * 1024;

  Fabric fabric(profile, topo);
  YcsbEngine engine(fabric, cfg);
  engine.Setup();
  return engine.Run();
}

// Digests recorded before the per-QP send queues replaced the single TX
// queue. run0 = CC off, run1 = ECN/DCQCN on.
const std::map<std::string, std::string> kIncastDigests = {
    {".fabric.pcapng", "a58aa6454ca000212d017841de3b7e45c8f4d561600d26bda3ebbe427ccf7750"},
    {".node0.nic.pcapng", "ce02585a448ccc4d2077d0a517b515d515ce8e5fbda2ef69d1fbdd341723a09d"},
    {".node1.nic.pcapng", "9b44ab38a54a851f0d8a65aac243a50e919342a9ce539ae28bac57a09f2f3b94"},
    {".node2.nic.pcapng", "709f149aded4f863762c74be2ac1cf2ceff5676c6ad17b647a8ae368333fa052"},
    {".node3.nic.pcapng", "a60acdd29e0055424c3593a886fdc3b6046a4b02f0d9d4be62e64c2099ca4172"},
    {".run1.fabric.pcapng", "3b442e6bcdd3108968444ae88302263a3d6f369bb1e3558f6683c50f5f28ec79"},
    {".run1.node0.nic.pcapng", "134f431934279e38bf6e285f219c9cb0e4c8ba17ae16f74d73783006dc3067dc"},
    {".run1.node1.nic.pcapng", "6be47032de9f75ff127b3f454eecc9d5a073ea3af1b9a149e060c948047f1ce1"},
    {".run1.node2.nic.pcapng", "3c22afd1b94426fa2e4fd48134596b19b5eac2be944d6c25510c4122b3c9d29b"},
    {".run1.node3.nic.pcapng", "2b3d8864fdcbcb39ece9a01d92f0ac32abf0881ce27333c7b30e392009277ae1"},
};

TEST(QpStateRegression, IncastCapturesMatchDigestsWithCcOffAndOn) {
  const std::string prefix = ::testing::TempDir() + "/qp_state_incast";
  const TestbedTelemetryDefaults saved = Testbed::telemetry_defaults;
  Testbed::telemetry_defaults.collector = nullptr;
  Testbed::telemetry_defaults.capture_prefix = prefix;
  Testbed::telemetry_defaults.capture_runs = 2;
  Testbed::run_ordinal = 0;
  const YcsbReport off = RunIncast(/*cc_enabled=*/false);
  Testbed::run_ordinal = 1;
  const YcsbReport on = RunIncast(/*cc_enabled=*/true);
  Testbed::run_ordinal = -1;
  Testbed::telemetry_defaults = saved;

  // The two runs must keep covering the paths they pin: tail drops and
  // retransmission with CC off, the DCQCN pacing pick with CC on.
  EXPECT_GT(off.tail_drops, 0u);
  EXPECT_GT(on.pacing_deferrals, 0u);

  std::map<std::string, std::string> got;
  for (const char* run : {"", ".run1"}) {
    for (const char* kind :
         {"fabric", "node0.nic", "node1.nic", "node2.nic", "node3.nic"}) {
      const std::string suffix = std::string(run) + "." + kind + ".pcapng";
      got[suffix] = Sha256File(prefix + suffix);
      std::remove((prefix + suffix).c_str());  // ~60 MB across the ten files
    }
  }
  ExpectDigests(got, kIncastDigests);
}

}  // namespace
}  // namespace strom
