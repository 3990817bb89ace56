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
  // Poll loops spin on this: for the common page-interior word, skip the
  // visitor machinery and load straight from the page.
  const uint64_t off = HugePageOffset(addr);
  if (off + 8 <= kHugePageSize) {
    const uint8_t* page = PageForRead(addr);
    static constexpr uint8_t kZeros[8] = {};
    return LoadLe64(page == nullptr ? kZeros : page + off);
  }
  uint8_t buf[8];
  Read(addr, MutableByteSpan(buf, 8));
  return LoadLe64(buf);
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
