// Determinism tests for the parallel sweep runner: a small fig05a+fig10-style
// sweep (latency pings plus torn-object consistency reads) must produce
// byte-identical telemetry dumps and pcapng captures when run twice serially
// and when run under ParallelFor with 4 workers. This replicates exactly the
// plumbing bench_util's sweep runner uses: one Testbed per point, the
// process-wide telemetry defaults, and Testbed::run_ordinal set around each
// point so run labels, collector merge order, and capture gating depend only
// on the point's position in the sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/parallel.h"
#include "src/kvs/versioned_object.h"
#include "src/sim/task.h"
#include "src/telemetry/telemetry.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"
#include "tests/sha256_test_util.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;
constexpr int kPoints = 3;

// ---------------------------------------------------------------------------
// One sweep point: a fig05a-style WRITE+READ latency ping at a
// point-dependent payload, then a fig10-style consistency read that observes
// a torn object once and retries after the concurrent writer repairs it.
// ---------------------------------------------------------------------------

double RunPoint(int idx) {
  Testbed bed(Profile10G());
  bed.ConnectQp(0, kQp, 1, kQp);
  RoceDriver& drv = bed.node(0).driver();
  const VirtAddr local = drv.AllocBuffer(KiB(64))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(KiB(64))->addr;
  const uint32_t payload = 64u << idx;

  STROM_CHECK(drv.WriteHost(local, RandomBytes(payload, 17 + static_cast<uint64_t>(idx))).ok());
  bool write_done = false;
  drv.PostWrite(kQp, local, remote, payload, [&](Status st) {
    STROM_CHECK(st.ok()) << st;
    write_done = true;
  });
  bed.sim().RunUntil([&] { return write_done; });
  bool read_done = false;
  drv.PostRead(kQp, local, remote, payload, [&](Status st) {
    STROM_CHECK(st.ok()) << st;
    read_done = true;
  });
  bed.sim().RunUntil([&] { return read_done; });

  const VirtAddr region = bed.node(1).driver().AllocBuffer(KiB(4))->addr;
  VersionedObjectStore store(bed.node(1).driver(), region, 64);
  STROM_CHECK(store.WriteObject(0, 5).ok());
  STROM_CHECK(store.TearObject(0, 99).ok());
  bed.sim().Schedule(Us(4), [&store] { STROM_CHECK(store.RepairObject(0).ok()); });

  bool finished = false;
  struct Ctx {
    Testbed& bed;
    VersionedObjectStore& store;
    VirtAddr local;
    bool* finished;
  };
  auto reader = [](Ctx c) -> Task {
    RoceDriver& d = c.bed.node(0).driver();
    while (true) {
      auto read = d.Read(kQp, c.local, c.store.ObjectAddr(0), c.store.object_size());
      Status st = co_await read;
      STROM_CHECK(st.ok()) << st;
      ByteBuffer object = *d.ReadHost(c.local, c.store.object_size());
      if (VersionedObjectStore::IsConsistent(object)) {
        break;
      }
    }
    *c.finished = true;
  };
  bed.sim().Spawn(reader(Ctx{bed, store, local, &finished}));
  bed.sim().RunUntil([&] { return finished; });
  return ToUs(bed.sim().now());
}

// ---------------------------------------------------------------------------
// Trial harness: run the kPoints sweep with the given worker count exactly
// the way bench_util's sweep runner does, and collapse everything observable
// (point results, collector dumps, capture digests) into strings.
// ---------------------------------------------------------------------------

struct TrialOutput {
  std::vector<double> results;
  std::string metrics_csv;
  std::map<std::string, std::string> capture_digests;  // filename suffix -> sha256
};

TrialOutput RunTrial(const std::string& tag, int jobs) {
  const std::string prefix = ::testing::TempDir() + "/det_" + tag;
  TelemetryCollector collector;
  const TestbedTelemetryDefaults saved = Testbed::telemetry_defaults;
  Testbed::telemetry_defaults.collector = &collector;
  Testbed::telemetry_defaults.capture_prefix = prefix;
  Testbed::telemetry_defaults.capture_runs = kPoints;

  TrialOutput out;
  out.results.resize(kPoints);
  ParallelFor(kPoints, jobs, [&](size_t i) {
    Testbed::run_ordinal = static_cast<int64_t>(i);
    out.results[i] = RunPoint(static_cast<int>(i));
    Testbed::run_ordinal = -1;
  });

  Testbed::telemetry_defaults = saved;
  out.metrics_csv = collector.MetricsCsv();
  // Capture files: run 0 has no suffix, later runs carry ".run<N>".
  for (int run = 0; run < kPoints; ++run) {
    const std::string run_part = run == 0 ? "" : ".run" + std::to_string(run);
    for (const char* kind : {"wire", "node0.nic", "node1.nic"}) {
      const std::string suffix = run_part + "." + kind + ".pcapng";
      out.capture_digests[suffix] = Sha256File(prefix + suffix);
    }
  }
  return out;
}

TEST(SweepDeterminism, SerialRerunAndParallelRunAreByteIdentical) {
  const TrialOutput serial_a = RunTrial("serial_a", 1);
  const TrialOutput serial_b = RunTrial("serial_b", 1);
  const TrialOutput parallel = RunTrial("parallel", 4);

  // Points produced results at all (and the scenario actually simulated).
  for (double us : serial_a.results) {
    EXPECT_GT(us, 0.0);
  }

  // Serial rerun: everything identical.
  EXPECT_EQ(serial_a.results, serial_b.results);
  EXPECT_EQ(serial_a.metrics_csv, serial_b.metrics_csv);
  EXPECT_EQ(serial_a.capture_digests, serial_b.capture_digests);

  // --jobs 4: same simulated results, same merged dumps, same captures.
  EXPECT_EQ(serial_a.results, parallel.results);
  EXPECT_EQ(serial_a.metrics_csv, parallel.metrics_csv);
  EXPECT_EQ(serial_a.capture_digests, parallel.capture_digests);
}

TEST(SweepDeterminism, Sha256KnownVectors) {
  // FIPS 180-4 test vectors, so a digest mismatch above means the files
  // differ, not that the hash is wrong.
  Sha256 empty;
  EXPECT_EQ(empty.Hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  Sha256 abc;
  abc.Update(reinterpret_cast<const uint8_t*>("abc"), 3);
  EXPECT_EQ(abc.Hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

}  // namespace
}  // namespace strom
