// Unit tests for the PCIe substrate: sparse host memory, TLB translation and
// page-boundary splitting, DMA timing and data integrity.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/pcie/dma_engine.h"
#include "src/pcie/host_memory.h"
#include "src/pcie/tlb.h"
#include "src/sim/simulator.h"

namespace strom {
namespace {

ByteBuffer ReadAll(const HostMemory& mem, PhysAddr addr, size_t len) {
  ByteBuffer out(len);
  mem.Read(addr, MutableByteSpan(out.data(), out.size()));
  return out;
}

TEST(HostMemory, ReadBackWhatWasWritten) {
  HostMemory mem;
  const PhysAddr page = mem.AllocPage();
  ByteBuffer data = {1, 2, 3, 4, 5};
  mem.Write(page + 100, data);
  EXPECT_EQ(ReadAll(mem, page + 100, 5), data);
}

TEST(HostMemory, UntouchedMemoryReadsZero) {
  HostMemory mem;
  EXPECT_EQ(ReadAll(mem, 0x7000000, 16), ByteBuffer(16, 0));
}

TEST(HostMemory, VisitReadSeesPagesInPlace) {
  HostMemory mem;
  const PhysAddr page = mem.AllocPage();
  ByteBuffer data(4096, 0xEE);
  const PhysAddr addr = page + kHugePageSize - 1024;  // spans into next page
  mem.Write(addr, data);
  size_t chunks = 0;
  size_t total = 0;
  mem.VisitRead(addr, 4096, [&](size_t off, ByteSpan span) {
    EXPECT_EQ(off, total);
    for (uint8_t b : span) {
      EXPECT_EQ(b, 0xEE);
    }
    ++chunks;
    total += span.size();
  });
  EXPECT_EQ(chunks, 2u);  // one span per touched page
  EXPECT_EQ(total, 4096u);
}

TEST(HostMemory, VisitReadUnmappedYieldsZeros) {
  HostMemory mem;
  mem.VisitRead(0x9000000, 64, [](size_t, ByteSpan span) {
    for (uint8_t b : span) {
      EXPECT_EQ(b, 0);
    }
  });
  EXPECT_EQ(mem.materialized_pages(), 0u);  // reads must not materialize pages
}

TEST(HostMemory, CrossPageWriteAndRead) {
  HostMemory mem;
  const PhysAddr page = mem.AllocPage();
  ByteBuffer data(4096, 0xCD);
  const PhysAddr addr = page + kHugePageSize - 2048;  // spans into next page
  mem.Write(addr, data);
  EXPECT_EQ(ReadAll(mem, addr, 4096), data);
}

TEST(HostMemory, U64Accessors) {
  HostMemory mem;
  const PhysAddr page = mem.AllocPage();
  mem.WriteU64(page + 8, 0x1122334455667788ull);
  EXPECT_EQ(mem.ReadU64(page + 8), 0x1122334455667788ull);
}

TEST(HostMemory, AllocPagesAreDistinctAndAligned) {
  HostMemory mem;
  const PhysAddr a = mem.AllocPage();
  const PhysAddr b = mem.AllocPage();
  EXPECT_NE(a, b);
  EXPECT_EQ(HugePageOffset(a), 0u);
  EXPECT_EQ(HugePageOffset(b), 0u);
  // Deliberately non-adjacent (physical discontiguity, paper §4.2).
  EXPECT_GT(b - a, kHugePageSize);
}

bool TransparentHugePagesAlways() {
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  std::getline(thp, mode);
  return mode.find("[always]") != std::string::npos;
}

// Writes 8 bytes 400 KiB into the page at `page` and returns how many of the
// host pages under it are resident, by mincore.
long WriteWordAndCountResident(HostMemory& mem, PhysAddr page) {
  const uintptr_t os_page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uint64_t offset = 4096 * 100;
  uint8_t* written = nullptr;
  mem.VisitWrite(page + offset, 8, [&](size_t, MutableByteSpan span) {
    std::memset(span.data(), 0xA5, span.size());
    written = span.data();
  });
  EXPECT_NE(written, nullptr);
  EXPECT_EQ(mem.ReadU64(page + offset), 0xA5A5A5A5A5A5A5A5ull);
  const uintptr_t begin = reinterpret_cast<uintptr_t>(written) - offset;
  const uintptr_t start = begin & ~(os_page - 1);
  const size_t len = begin + kHugePageSize - start;
  std::vector<unsigned char> resident((len + os_page - 1) / os_page);
  EXPECT_EQ(mincore(reinterpret_cast<void*>(start), len, resident.data()), 0)
      << std::strerror(errno);
  return std::count_if(resident.begin(), resident.end(),
                       [](unsigned char r) { return (r & 1) != 0; });
}

// A pinned page costs host memory only where the simulation writes: the OS
// commits its 4 KiB pages on first write. After an 8-byte write, mincore over
// the page's host span finds only the written page resident; a page zeroed up
// front has all 512 resident. Skipped when transparent huge pages are always
// on, since the kernel may then back a page with one 2 MiB page on first
// write.
TEST(HostMemory, PinnedPagesCommitOnlyWhatIsWritten) {
  if (TransparentHugePagesAlways()) {
    GTEST_SKIP() << "transparent huge pages back every 2 MiB mapping in full";
  }
  HostMemory mem;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(WriteWordAndCountResident(mem, mem.AllocPage()), 1) << "page " << i;
  }
}

// A process that builds testbeds one after another frees pages and pins
// new ones. Were pages heap blocks, glibc would serve the later ones from
// its heap once `first` is freed, and calloc would fill a reused block in
// full: `freed` leaves written blocks behind, and `keep` holds a page above
// them so they stay in the heap for reuse.
TEST(HostMemory, PagesPinnedAfterAFreeCommitOnlyWhatIsWritten) {
  if (TransparentHugePagesAlways()) {
    GTEST_SKIP() << "transparent huge pages back every 2 MiB mapping in full";
  }
  {
    HostMemory first;
    first.AllocPage();
  }
  auto freed = std::make_unique<HostMemory>();
  for (int i = 0; i < 4; ++i) {
    freed->Fill(freed->AllocPage(), kHugePageSize, 0x5A);
  }
  HostMemory keep;
  keep.AllocPage();
  freed.reset();
  HostMemory mem;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(WriteWordAndCountResident(mem, mem.AllocPage()), 1) << "page " << i;
  }
}

// Counts the writes that fire it.
class CountingWatch final : public HostMemory::WordWatch {
 public:
  int fired = 0;

 private:
  void OnWrite() override { ++fired; }
};

// The watch fires once, for the first write that overlaps any byte of its
// word, whichever write path made it, and ignores writes beside the word.
TEST(HostMemory, WordWatchFiresOnWritesThatOverlapTheWord) {
  HostMemory mem;
  const PhysAddr word = mem.AllocPage() + 4096;
  auto fires = [&](const auto& write) {
    CountingWatch w;
    w.Arm(mem, word);
    write();
    EXPECT_EQ(w.armed(), w.fired == 0);
    return w.fired;
  };
  const uint8_t byte = 1;
  EXPECT_EQ(fires([&] { mem.Write(word, ByteBuffer(8, 1)); }), 1);
  EXPECT_EQ(fires([&] { mem.Fill(word - 100, 200, 0xFF); }), 1);
  EXPECT_EQ(fires([&] { mem.WriteU64(word, 7); }), 1);
  EXPECT_EQ(fires([&] { mem.Write(word + 7, ByteSpan(&byte, 1)); }), 1);
  EXPECT_EQ(fires([&] { mem.Write(word - 7, ByteSpan(&byte, 1)); }), 0);
  EXPECT_EQ(fires([&] { mem.Write(word - 1, ByteSpan(&byte, 1)); }), 0);
  EXPECT_EQ(fires([&] { mem.Write(word + 8, ByteSpan(&byte, 1)); }), 0);
  EXPECT_EQ(fires([&] { mem.WriteU64(word - 8, 7); }), 0);
  EXPECT_EQ(fires([&] { mem.WriteU64(word + 8, 7); }), 0);
  EXPECT_EQ(fires([&] { mem.Write(word, ByteSpan(&byte, 0)); }), 0);
  EXPECT_EQ(mem.armed_watches(), 0u);

  // One-shot: a second write finds nothing armed.
  CountingWatch once;
  once.Arm(mem, word);
  mem.WriteU64(word, 1);
  mem.WriteU64(word, 2);
  EXPECT_EQ(once.fired, 1);
}

// Two watches on one word both fire on one write; a watch that re-arms from
// OnWrite waits for the next write.
TEST(HostMemory, WordWatchesOnOneWordAllFire) {
  struct Rearming final : HostMemory::WordWatch {
    HostMemory* mem = nullptr;
    PhysAddr word = 0;
    int fired = 0;
    void OnWrite() override {
      ++fired;
      Arm(*mem, word);
    }
  };
  HostMemory mem;
  const PhysAddr word = mem.AllocPage() + 64;
  CountingWatch a;
  Rearming b;
  b.mem = &mem;
  b.word = word;
  a.Arm(mem, word);
  b.Arm(mem, word);
  mem.WriteU64(word, 1);
  EXPECT_EQ(a.fired, 1);
  EXPECT_EQ(b.fired, 1);
  EXPECT_FALSE(a.armed());
  EXPECT_TRUE(b.armed());
  mem.WriteU64(word, 2);
  EXPECT_EQ(b.fired, 2);
}

// Either may be destroyed first: a destroyed watch leaves its memory, and
// destroyed memory detaches its watches.
TEST(HostMemory, WordWatchAndMemoryOutliveEachOther) {
  HostMemory mem;
  const PhysAddr word = mem.AllocPage();
  {
    CountingWatch gone;
    gone.Arm(mem, word);
    EXPECT_EQ(mem.armed_watches(), 1u);
  }
  EXPECT_EQ(mem.armed_watches(), 0u);
  mem.WriteU64(word, 1);  // must not reach the destroyed watch

  CountingWatch w;
  {
    HostMemory dying;
    w.Arm(dying, dying.AllocPage());
    EXPECT_TRUE(w.armed());
  }
  EXPECT_FALSE(w.armed());  // and ~CountingWatch must not touch `dying`
}

TEST(Tlb, MapAndTranslate) {
  Tlb tlb(16);
  HostMemory mem;
  const PhysAddr phys = mem.AllocPage();
  ASSERT_TRUE(tlb.Map(kHugePageSize * 10, phys).ok());
  Result<PhysAddr> t = tlb.Translate(kHugePageSize * 10 + 4242);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, phys + 4242);
}

TEST(Tlb, RejectsUnalignedMappings) {
  Tlb tlb(16);
  EXPECT_FALSE(tlb.Map(123, 0).ok());
  EXPECT_FALSE(tlb.Map(kHugePageSize, kHugePageSize + 5).ok());
}

TEST(Tlb, MissReturnsNotFound) {
  Tlb tlb(16);
  Result<PhysAddr> t = tlb.Translate(kHugePageSize * 3);
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kNotFound);
}

TEST(Tlb, CapacityEnforced) {
  Tlb tlb(2);
  EXPECT_TRUE(tlb.Map(0, 0).ok());
  EXPECT_TRUE(tlb.Map(kHugePageSize, kHugePageSize * 2).ok());
  EXPECT_EQ(tlb.Map(kHugePageSize * 2, kHugePageSize * 4).code(),
            StatusCode::kResourceExhausted);
}

TEST(Tlb, ResolveSplitsAtPageBoundary) {
  // Two virtually adjacent pages mapped to non-adjacent physical pages: a
  // command crossing the boundary must split (paper §4.2).
  Tlb tlb(16);
  HostMemory mem;
  const PhysAddr p0 = mem.AllocPage();
  const PhysAddr p1 = mem.AllocPage();
  ASSERT_TRUE(tlb.Map(0, p0).ok());
  ASSERT_TRUE(tlb.Map(kHugePageSize, p1).ok());

  Result<std::vector<DmaSegment>> segs = tlb.Resolve(kHugePageSize - 1000, 3000);
  ASSERT_TRUE(segs.ok());
  ASSERT_EQ(segs->size(), 2u);
  EXPECT_EQ((*segs)[0].phys, p0 + kHugePageSize - 1000);
  EXPECT_EQ((*segs)[0].length, 1000u);
  EXPECT_EQ((*segs)[1].phys, p1);
  EXPECT_EQ((*segs)[1].length, 2000u);
  EXPECT_EQ(tlb.boundary_splits(), 1u);
}

TEST(Tlb, ResolveMergesPhysicallyContiguousPages) {
  Tlb tlb(16);
  ASSERT_TRUE(tlb.Map(0, kHugePageSize * 8).ok());
  ASSERT_TRUE(tlb.Map(kHugePageSize, kHugePageSize * 9).ok());
  Result<std::vector<DmaSegment>> segs = tlb.Resolve(0, kHugePageSize * 2);
  ASSERT_TRUE(segs.ok());
  EXPECT_EQ(segs->size(), 1u);
  EXPECT_EQ((*segs)[0].length, kHugePageSize * 2);
}

class DmaTest : public ::testing::Test {
 protected:
  DmaTest() : dma_(sim_, mem_, tlb_, MakeConfig()) {
    const PhysAddr p0 = mem_.AllocPage();
    const PhysAddr p1 = mem_.AllocPage();
    EXPECT_TRUE(tlb_.Map(0, p0).ok());
    EXPECT_TRUE(tlb_.Map(kHugePageSize, p1).ok());
  }

  static DmaConfig MakeConfig() {
    DmaConfig cfg;
    cfg.bandwidth_bps = 57'000'000'000ull;
    cfg.read_latency = Ns(1200);
    cfg.write_latency = Ns(500);
    cfg.per_command_overhead = Ns(80);
    return cfg;
  }

  Simulator sim_;
  HostMemory mem_;
  Tlb tlb_;
  DmaEngine dma_;
};

TEST_F(DmaTest, WriteThenReadRoundTrip) {
  ByteBuffer data(256);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  bool wrote = false;
  dma_.Write(100, FrameBuf::Copy(data), [&](Status st) {
    EXPECT_TRUE(st.ok());
    wrote = true;
  });
  sim_.RunUntilIdle();
  EXPECT_TRUE(wrote);

  ByteBuffer got;
  dma_.Read(100, 256, [&](Result<FrameBuf> r) {
    ASSERT_TRUE(r.ok());
    got = r->ToBuffer();
  });
  sim_.RunUntilIdle();
  EXPECT_EQ(got, data);
}

// A DMA write fires the watch when it completes, not when it is issued, and
// through each segment of a command split at a page boundary.
TEST_F(DmaTest, CompletedWriteFiresTheWatchOnItsWord) {
  CountingWatch inner;
  CountingWatch second_page;
  CountingWatch beside;
  inner.Arm(mem_, *tlb_.Translate(1000));
  second_page.Arm(mem_, *tlb_.Translate(kHugePageSize + 8));
  beside.Arm(mem_, *tlb_.Translate(1008));
  dma_.Write(996, FrameBuf::Copy(ByteBuffer(8, 0xAB)), nullptr);
  dma_.Write(kHugePageSize - 16, FrameBuf::Copy(ByteBuffer(32, 0xCD)), nullptr);
  EXPECT_EQ(inner.fired, 0);
  sim_.RunUntilIdle();
  EXPECT_EQ(inner.fired, 1);
  EXPECT_EQ(second_page.fired, 1);
  EXPECT_EQ(beside.fired, 0);
}

TEST_F(DmaTest, ReadLatencyMatchesModel) {
  SimTime done_at = -1;
  dma_.Read(0, 64, [&](Result<FrameBuf>) { done_at = sim_.now(); });
  sim_.RunUntilIdle();
  // max(80ns overhead, 64B transfer) + 1200ns latency.
  EXPECT_EQ(done_at, Ns(80) + Ns(1200));
}

TEST_F(DmaTest, CommandsQueueOnSharedChannel) {
  SimTime first = -1;
  SimTime second = -1;
  dma_.Read(0, 64, [&](Result<FrameBuf>) { first = sim_.now(); });
  dma_.Read(64, 64, [&](Result<FrameBuf>) { second = sim_.now(); });
  sim_.RunUntilIdle();
  // Service times serialize (80 ns each); latency overlaps.
  EXPECT_EQ(second - first, Ns(80));
}

TEST_F(DmaTest, CrossPageCommandSplitsAndStaysCorrect) {
  ByteBuffer data(4000, 0xEE);
  dma_.Write(kHugePageSize - 2000, FrameBuf::Copy(data), nullptr);
  sim_.RunUntilIdle();
  ByteBuffer got;
  dma_.Read(kHugePageSize - 2000, 4000, [&](Result<FrameBuf> r) {
    ASSERT_TRUE(r.ok());
    got = r->ToBuffer();
  });
  sim_.RunUntilIdle();
  EXPECT_EQ(got, data);
  EXPECT_GE(dma_.counters().segment_splits, 2u);
}

TEST_F(DmaTest, UnmappedAddressFailsWithCallback) {
  bool failed = false;
  dma_.Read(kHugePageSize * 100, 64, [&](Result<FrameBuf> r) {
    EXPECT_FALSE(r.ok());
    failed = true;
  });
  sim_.RunUntilIdle();
  EXPECT_TRUE(failed);
  EXPECT_EQ(dma_.counters().errors, 1u);
}

TEST_F(DmaTest, PerCommandOverheadDominatesSmallTransfers) {
  // 64 random 128 B writes: each pays the 80 ns overhead, so the write
  // channel is busy ~64*80 ns even though the bytes would take far less.
  for (int i = 0; i < 64; ++i) {
    dma_.Write(static_cast<VirtAddr>(i) * 4096, FrameBuf::Copy(ByteBuffer(128, 1)), nullptr);
  }
  const SimTime busy_until = dma_.WriteChannelIdleAt();
  EXPECT_GE(busy_until, Ns(80) * 64);
}

TEST_F(DmaTest, ReadObservesEarlierPostedWrite) {
  // PCIe ordering: a read issued after a posted write must return the
  // written data, even though the channels are otherwise independent.
  ByteBuffer data(512, 0x42);
  dma_.Write(1000, FrameBuf::Copy(data), nullptr);
  ByteBuffer got;
  dma_.Read(1000, 512, [&](Result<FrameBuf> r) {
    ASSERT_TRUE(r.ok());
    got = r->ToBuffer();
  });
  sim_.RunUntilIdle();
  EXPECT_EQ(got, data);
}

TEST_F(DmaTest, LargeTransferThroughputMatchesBandwidth) {
  const size_t n = 1 << 20;  // 1 MiB within the two mapped pages
  SimTime done_at = -1;
  dma_.Write(0, FrameBuf::Copy(ByteBuffer(n, 7)), [&](Status) { done_at = sim_.now(); });
  sim_.RunUntilIdle();
  const double secs = ToSec(done_at - Ns(500));
  const double gbps = static_cast<double>(n) * 8 / secs / 1e9;
  EXPECT_NEAR(gbps, 57.0, 1.0);
}

}  // namespace
}  // namespace strom
