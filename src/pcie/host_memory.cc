#include "src/pcie/host_memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"

namespace strom {

HostMemory::PagePtr HostMemory::NewPage() {
  // An anonymous mapping reads as zero, and the host OS commits each of its
  // 4 KiB pages when it is first written. A heap block would not do: once a
  // process frees a block this large, glibc serves later ones from its heap,
  // and calloc fills a reused block.
  void* page = mmap(nullptr, kHugePageSize, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  STROM_CHECK(page != MAP_FAILED) << "out of host memory for a simulated page";
  return PagePtr(static_cast<uint8_t*>(page));
}

void HostMemory::UnmapPage::operator()(uint8_t* page) const {
  munmap(page, kHugePageSize);
}

uint8_t* HostMemory::PageFor(PhysAddr addr, bool create) {
  const uint64_t base = HugePageBase(addr);
  if (base == cached_base_) {
    return cached_page_;
  }
  auto it = pages_.find(base);
  if (it == pages_.end()) {
    if (!create) {
      return nullptr;
    }
    it = pages_.emplace(base, NewPage()).first;
  }
  cached_base_ = base;
  cached_page_ = it->second.get();
  return cached_page_;
}

const uint8_t* HostMemory::PageForRead(PhysAddr addr) const {
  const uint64_t base = HugePageBase(addr);
  if (base == cached_base_) {
    return cached_page_;
  }
  auto it = pages_.find(base);
  if (it == pages_.end()) {
    return nullptr;
  }
  cached_base_ = base;
  cached_page_ = it->second.get();
  return cached_page_;
}

const uint8_t* HostMemory::ZeroPage() {
  static const PagePtr zero = NewPage();
  return zero.get();
}

void HostMemory::Write(PhysAddr addr, ByteSpan data) {
  VisitWrite(addr, data.size(), [&data](size_t done, MutableByteSpan dst) {
    std::memcpy(dst.data(), data.data() + done, dst.size());
  });
}

void HostMemory::Read(PhysAddr addr, MutableByteSpan out) const {
  VisitRead(addr, out.size(), [&out](size_t done, ByteSpan src) {
    std::memcpy(out.data() + done, src.data(), src.size());
  });
}

void HostMemory::WriteU64(PhysAddr addr, uint64_t value) {
  uint8_t buf[8];
  StoreLe64(buf, value);
  Write(addr, ByteSpan(buf, 8));
}

uint64_t HostMemory::ReadU64(PhysAddr addr) const {
  uint8_t buf[8];
  Read(addr, MutableByteSpan(buf, 8));
  return LoadLe64(buf);
}

HostMemory::~HostMemory() {
  for (WordWatch* w : watches_) {
    w->memory_ = nullptr;
  }
}

void HostMemory::WordWatch::Arm(HostMemory& memory, PhysAddr word) {
  STROM_CHECK(memory_ == nullptr) << "word watch armed twice";
  memory_ = &memory;
  word_ = word;
  std::vector<WordWatch*>& list = memory.watches_;
  list.insert(std::upper_bound(list.begin(), list.end(), word,
                               [](PhysAddr a, const WordWatch* w) { return a < w->word_; }),
              this);
}

void HostMemory::WordWatch::Disarm() {
  if (memory_ == nullptr) {
    return;
  }
  std::vector<WordWatch*>& list = memory_->watches_;
  auto it = std::lower_bound(list.begin(), list.end(), word_, WordBefore);
  while (*it != this) {  // past earlier watches on the same word
    ++it;
  }
  list.erase(it);
  memory_ = nullptr;
}

void HostMemory::FireWatches(PhysAddr addr, size_t len) {
  if (len == 0) {
    return;
  }
  // The word [w, w + 8) overlaps [addr, addr + len) when addr - 8 < w < addr + len.
  const auto lo =
      std::lower_bound(watches_.begin(), watches_.end(), addr < 7 ? 0 : addr - 7, WordBefore);
  const auto hi = std::lower_bound(lo, watches_.end(), addr + len, WordBefore);
  if (lo == hi) {
    return;
  }
  // Drop every fired watch before any OnWrite runs, so one that an OnWrite
  // arms waits for the next write.
  const std::vector<WordWatch*> fired(lo, hi);
  watches_.erase(lo, hi);
  for (WordWatch* w : fired) {
    w->memory_ = nullptr;
  }
  for (WordWatch* w : fired) {
    w->OnWrite();
  }
}

void HostMemory::Fill(PhysAddr addr, size_t len, uint8_t value) {
  VisitWrite(addr, len, [value](size_t, MutableByteSpan dst) {
    std::memset(dst.data(), value, dst.size());
  });
}

PhysAddr HostMemory::AllocPage() {
  // Stride of 2 pages leaves an unmapped hole after every page, so accesses
  // that run past a page without a TLB-split fault on zeroed memory in tests.
  const PhysAddr base = next_page_index_ * kHugePageSize * 2;
  ++next_page_index_;
  (void)PageFor(base, /*create=*/true);
  return base;
}

}  // namespace strom
