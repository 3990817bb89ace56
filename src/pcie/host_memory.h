// Simulated host DRAM, physically addressed, organized as sparse 2 MiB huge
// pages (the unit the driver pins and the TLB maps, paper §4.2). A page
// exists once it is pinned (AllocPage) or first written; each is its own
// anonymous mapping, so the host OS commits only the 4 KiB pages the
// simulation writes. A pinned page nothing writes costs address space, not
// memory, and nothing is zeroed by hand.
//
// Every write goes through VisitWrite, which also fires the one-shot word
// watches a parked poll leaves (RoceDriver::PollU64, DESIGN.md §13).
#ifndef SRC_PCIE_HOST_MEMORY_H_
#define SRC_PCIE_HOST_MEMORY_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/types.h"

namespace strom {

inline constexpr uint64_t kHugePageSize = 2ull * 1024 * 1024;
inline constexpr uint64_t kHugePageMask = kHugePageSize - 1;

inline constexpr uint64_t HugePageBase(uint64_t addr) { return addr & ~kHugePageMask; }
inline constexpr uint64_t HugePageOffset(uint64_t addr) { return addr & kHugePageMask; }

class HostMemory {
 public:
  // A one-shot watch on the 8-byte word at a physical address, which must
  // lie within one huge page. The first write that overlaps the word drops
  // the watch, then calls OnWrite() from inside the write, after its bytes
  // have landed and every watch it fired has been dropped. A watch disarms
  // itself when destroyed, and host memory disarms its watches when it is
  // destroyed first, so either may outlive the other.
  class WordWatch {
   public:
    WordWatch() = default;
    WordWatch(const WordWatch&) = delete;
    WordWatch& operator=(const WordWatch&) = delete;

    void Arm(HostMemory& memory, PhysAddr word);
    void Disarm();
    bool armed() const { return memory_ != nullptr; }

   protected:
    virtual ~WordWatch() { Disarm(); }
    virtual void OnWrite() = 0;

   private:
    friend class HostMemory;
    HostMemory* memory_ = nullptr;
    PhysAddr word_ = 0;
  };

  HostMemory() = default;
  ~HostMemory();
  HostMemory(const HostMemory&) = delete;
  HostMemory& operator=(const HostMemory&) = delete;

  void Write(PhysAddr addr, ByteSpan data);
  void Read(PhysAddr addr, MutableByteSpan out) const;

  // Scatter/gather span iteration: visits the range [addr, addr + len) as one
  // ByteSpan per touched page, in address order, without materializing a
  // buffer. Consumers (DmaEngine, StRoM kernels) read the pages in place.
  // Unmapped memory reads as zero (the visitor sees a span of a shared zero
  // page). visit(offset_in_range, span_of_bytes).
  template <typename Fn>
  void VisitRead(PhysAddr addr, size_t len, Fn&& visit) const {
    size_t done = 0;
    while (done < len) {
      const PhysAddr cur = addr + done;
      const uint64_t off = HugePageOffset(cur);
      const size_t chunk = std::min<size_t>(len - done, kHugePageSize - off);
      const uint8_t* page = PageForRead(cur);
      visit(done, ByteSpan(page == nullptr ? ZeroPage() : page + off, chunk));
      done += chunk;
    }
  }

  // Write-side counterpart: visits the same page decomposition with mutable
  // spans, materializing pages on first touch. visit must fill every byte of
  // the span it is handed. The one choke point of every write: it fires the
  // watches on words the range overlaps.
  template <typename Fn>
  void VisitWrite(PhysAddr addr, size_t len, Fn&& visit) {
    size_t done = 0;
    while (done < len) {
      const PhysAddr cur = addr + done;
      const uint64_t off = HugePageOffset(cur);
      const size_t chunk = std::min<size_t>(len - done, kHugePageSize - off);
      uint8_t* page = PageFor(cur, /*create=*/true);
      visit(done, MutableByteSpan(page + off, chunk));
      done += chunk;
    }
    if (!watches_.empty()) {
      FireWatches(addr, len);
    }
  }

  // Convenience scalar accessors (little-endian, matching x86 host layout).
  void WriteU64(PhysAddr addr, uint64_t value);
  uint64_t ReadU64(PhysAddr addr) const;

  // Fills a range with a byte value.
  void Fill(PhysAddr addr, size_t len, uint8_t value);

  size_t materialized_pages() const { return pages_.size(); }
  size_t armed_watches() const { return watches_.size(); }

  // Allocates a fresh, zero-reading physical huge page and returns its base
  // address.
  // Page addresses are deliberately non-consecutive (stride > page size) so
  // that code assuming physical contiguity across pages fails loudly; the TLB
  // must be used to translate (paper §4.2: "physically they might not be
  // contiguous").
  PhysAddr AllocPage();

 private:
  struct UnmapPage {
    void operator()(uint8_t* page) const;
  };
  using PagePtr = std::unique_ptr<uint8_t[], UnmapPage>;

  // A zero-filled page whose host memory is committed on first write.
  static PagePtr NewPage();
  uint8_t* PageFor(PhysAddr addr, bool create);
  const uint8_t* PageForRead(PhysAddr addr) const;
  // Shared all-zero page backing reads of unmapped memory.
  static const uint8_t* ZeroPage();
  static bool WordBefore(const WordWatch* w, PhysAddr word) { return w->word_ < word; }
  // Drops, then fires in word order and arming order per word, every watch
  // on a word that [addr, addr + len) overlaps.
  void FireWatches(PhysAddr addr, size_t len);

  std::map<uint64_t, PagePtr> pages_;
  uint64_t next_page_index_ = 1;
  // One-entry lookup cache: DMA bursts and poll loops hammer the same page,
  // and the std::map find dominated the access cost. Map nodes are stable
  // under insertion (and pages are never erased), so the cached pointer can
  // not dangle. Only mapped pages are cached — a miss stays a map lookup.
  mutable uint64_t cached_base_ = ~uint64_t{0};
  mutable uint8_t* cached_page_ = nullptr;
  // Armed watches sorted by word; equal words keep arming order. A poll
  // parks one per waiting host thread, so the list stays short.
  std::vector<WordWatch*> watches_;
};

}  // namespace strom

#endif  // SRC_PCIE_HOST_MEMORY_H_
