// Round-trip census: PAPER.md §1's structural claims as exact sensitivities.
// The simulator is deterministic, so adding 100 ns to one calibration knob
// moves a latency by an exact multiple of 100 ns: the number of times the
// path pays that knob. A StRoM traversal pays two propagation delays (one
// network round trip) and one PCIe read per element; the RDMA READ walk pays
// a network round trip per element. Polled completions re-read their word
// every kPollInterval from the post, and 100 ns is two whole intervals, so
// the census of a polled path is exact too.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/kernels/traversal.h"
#include "src/kvs/linked_list.h"
#include "src/sim/task.h"
#include "src/testbed/testbed.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;
constexpr SimTime kNudge = Ns(100);

// The knobs, in the order of every census row.
enum class Knob { kPropagation, kDmaRead, kDmaWrite, kMmio };
constexpr std::array<Knob, 4> kKnobs = {Knob::kPropagation, Knob::kDmaRead, Knob::kDmaWrite,
                                        Knob::kMmio};

using Census = std::array<double, 4>;
// One latency measured on a fresh testbed built from the profile.
using Measure = std::function<SimTime(const Profile&)>;

// Copies Profile10G, adds 100 ns to one knob, and returns the latency change
// in units of 100 ns.
double Slope(const Measure& measure, Knob knob) {
  const Profile base = Profile10G();
  Profile nudged = base;
  switch (knob) {
    case Knob::kPropagation:
      nudged.link.propagation += kNudge;
      break;
    case Knob::kDmaRead:
      nudged.dma.read_latency += kNudge;
      break;
    case Knob::kDmaWrite:
      nudged.dma.write_latency += kNudge;
      break;
    case Knob::kMmio:
      nudged.controller.mmio_latency += kNudge;
      break;
  }
  return static_cast<double>(measure(nudged) - measure(base)) / static_cast<double>(kNudge);
}

Census TakeCensus(const Measure& measure) {
  Census out{};
  for (size_t i = 0; i < kKnobs.size(); ++i) {
    out[i] = Slope(measure, kKnobs[i]);
  }
  return out;
}

// Fig 5a WRITE, 64 B: posted on node 0, its last word polled on node 1.
SimTime WriteLatency(const Profile& profile) {
  Testbed bed(profile);
  bed.ConnectQp(0, kQp, 1, kQp);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  bed.node(0).driver().WriteHostU64(local + 56, 1);
  SimTime seen = -1;
  bed.sim().Spawn([](RoceDriver& drv, VirtAddr addr, SimTime* out) -> Task {
    co_await drv.PollU64(addr, 0);
    *out = drv.sim().now();
  }(bed.node(1).driver(), remote + 56, &seen));
  const SimTime start = bed.sim().now();
  bed.node(0).driver().PostWrite(kQp, local, remote, 64);
  EXPECT_TRUE(bed.sim().RunUntil([&seen] { return seen >= 0; }));
  return seen - start;
}

// Fig 5a READ, 64 B: until the response payload is in the requester's memory.
SimTime ReadLatency(const Profile& profile) {
  Testbed bed(profile);
  bed.ConnectQp(0, kQp, 1, kQp);
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  SimTime done = -1;
  const SimTime start = bed.sim().now();
  bed.node(0).driver().PostRead(kQp, local, remote, 64, [&](Status st) {
    EXPECT_TRUE(st.ok()) << st;
    done = bed.sim().now();
  });
  EXPECT_TRUE(bed.sim().RunUntil([&done] { return done >= 0; }));
  return done - start;
}

// Fig 7's list: 32 elements with 64 B values, the key at depth d being d.
struct ListBed {
  explicit ListBed(const Profile& profile) : bed(profile) {
    bed.ConnectQp(0, kQp, 1, kQp);
    const KernelConfig kc{profile.roce.clock_ps, profile.roce.data_width};
    EXPECT_TRUE(bed.node(1)
                    .engine()
                    .DeployKernel(std::make_unique<TraversalKernel>(bed.node(1).sim(), kc))
                    .ok());
    resp = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
    const VirtAddr elems = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
    const VirtAddr values = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
    std::vector<uint64_t> keys;
    for (uint64_t k = 1; k <= 32; ++k) {
      keys.push_back(k);
    }
    list.emplace(*RemoteLinkedList::Build(bed.node(1).driver(), elems, values, keys, 64, 3));
  }

  Testbed bed;
  std::optional<RemoteLinkedList> list;
  VirtAddr resp = 0;
};

// Fig 7 StRoM lookup at depth d: one postRpc, the response's status word
// polled on the requester.
SimTime StromLookupLatency(const Profile& profile, int depth) {
  ListBed tb(profile);
  RoceDriver& drv = tb.bed.node(0).driver();
  drv.FillHost(tb.resp, tb.list->value_size() + 8, 0);
  SimTime seen = -1;
  const SimTime start = tb.bed.sim().now();
  drv.PostRpc(kTraversalRpcOpcode, kQp,
              tb.list->LookupParams(static_cast<uint64_t>(depth), tb.resp).Encode());
  tb.bed.sim().Spawn([](RoceDriver& d, VirtAddr addr, SimTime* out) -> Task {
    const uint64_t status = co_await d.PollU64(addr, 0);
    EXPECT_EQ(StatusWordCode(status), KernelStatusCode::kOk);
    *out = d.sim().now();
  }(drv, tb.resp + tb.list->value_size(), &seen));
  EXPECT_TRUE(tb.bed.sim().RunUntil([&seen] { return seen >= 0; }));
  return seen - start;
}

// Fig 7 RDMA READ walk at depth d: one READ per element up to the key, then
// one READ of the value.
SimTime ReadWalkLatency(const Profile& profile, int depth) {
  ListBed tb(profile);
  SimTime done = -1;
  const SimTime start = tb.bed.sim().now();
  tb.bed.sim().Spawn([](ListBed& b, uint64_t key, SimTime* out) -> Task {
    RoceDriver& drv = b.bed.node(0).driver();
    const VirtAddr local = b.resp;
    VirtAddr elem = b.list->head();
    while (true) {
      Status st = co_await drv.Read(kQp, local, elem, kTraversalElementSize);
      EXPECT_TRUE(st.ok()) << st;
      const uint64_t k = drv.ReadHostU64(local);
      if (k == key) {
        const VirtAddr value = drv.ReadHostU64(local + 8 * RemoteLinkedList::kValuePtrSlot);
        st = co_await drv.Read(kQp, local + 64, value, b.list->value_size());
        EXPECT_TRUE(st.ok()) << st;
        break;
      }
      elem = drv.ReadHostU64(local + 8 * RemoteLinkedList::kNextPtrSlot);
    }
    *out = b.bed.sim().now();
  }(tb, static_cast<uint64_t>(depth), &done));
  EXPECT_TRUE(tb.bed.sim().RunUntil([&done] { return done >= 0; }));
  return done - start;
}

// Both do one PCIe read (the requester's payload fetch or the responder's)
// and one PCIe write, behind one doorbell; the READ crosses the wire twice.
TEST(RoundTripCensus, Fig5aWriteAndRead) {
  EXPECT_EQ(TakeCensus(WriteLatency), (Census{1, 1, 1, 1}));
  EXPECT_EQ(TakeCensus(ReadLatency), (Census{2, 1, 1, 1}));
}

// One network round trip and one doorbell whatever the depth, a PCIe read
// per element plus one for the value, and the response's one PCIe write.
TEST(RoundTripCensus, Fig7StromLookupIsOneRoundTripPlusAPcieReadPerElement) {
  for (int d : {1, 4, 16, 32}) {
    SCOPED_TRACE(d);
    const Measure lookup = [d](const Profile& p) { return StromLookupLatency(p, d); };
    EXPECT_EQ(TakeCensus(lookup), (Census{2, d + 1.0, 1, 1}));
  }
}

// A network round trip, a responder PCIe read, a requester PCIe write and a
// doorbell per READ, and there are d + 1 READs.
TEST(RoundTripCensus, Fig7ReadWalkIsOneRoundTripPerElement) {
  for (int d : {1, 4, 16, 32}) {
    SCOPED_TRACE(d);
    const Measure walk = [d](const Profile& p) { return ReadWalkLatency(p, d); };
    const double reads = d + 1.0;
    EXPECT_EQ(TakeCensus(walk), (Census{2 * reads, reads, reads, reads}));
  }
}

}  // namespace
}  // namespace strom
