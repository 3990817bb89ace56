#include "src/kvs/linked_list.h"

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace strom {

ByteBuffer MakeValueForKey(uint64_t key, uint32_t value_size, uint64_t seed) {
  ByteBuffer value(value_size, 0);
  Rng rng(key ^ seed);
  size_t i = 0;
  if (value_size >= 8) {
    StoreLe64(value.data(), key | 1);  // never all-zero
    i = 8;
  }
  while (i < value_size) {
    value[i] = static_cast<uint8_t>(rng.Next() | 1);
    ++i;
  }
  return value;
}

Result<RemoteLinkedList> RemoteLinkedList::Build(RoceDriver& driver, VirtAddr element_region,
                                                 VirtAddr value_region,
                                                 const std::vector<uint64_t>& keys,
                                                 uint32_t value_size, uint64_t seed) {
  if (keys.empty()) {
    return InvalidArgumentError("empty list");
  }
  RemoteLinkedList list;
  list.head_ = element_region;
  list.value_size_ = value_size;
  list.seed_ = seed;
  list.keys_ = keys;

  for (size_t i = 0; i < keys.size(); ++i) {
    const VirtAddr elem_addr = element_region + i * kTraversalElementSize;
    const VirtAddr value_addr = value_region + i * value_size;
    const VirtAddr next_addr =
        (i + 1 < keys.size()) ? element_region + (i + 1) * kTraversalElementSize : 0;

    uint8_t element[kTraversalElementSize] = {};
    StoreLe64(element + kKeySlot * 8, keys[i]);
    StoreLe64(element + kNextPtrSlot * 8, next_addr);
    StoreLe64(element + kValuePtrSlot * 8, value_addr);
    STROM_RETURN_IF_ERROR(driver.WriteHost(elem_addr, ByteSpan(element, sizeof(element))));

    ByteBuffer value = MakeValueForKey(keys[i], value_size, seed);
    STROM_RETURN_IF_ERROR(driver.WriteHost(value_addr, value));
  }
  return list;
}

TraversalParams RemoteLinkedList::LookupParams(uint64_t key, VirtAddr target_addr) const {
  TraversalParams p;
  p.target_addr = target_addr;
  p.remote_address = head_;
  p.value_size = value_size_;
  p.key = key;
  p.max_hops = static_cast<uint32_t>(keys_.size()) + 1;
  p.search.key_mask = 1u << kKeySlot;
  p.search.predicate = TraversalPredicate::kEqual;
  p.search.value_ptr_position = kValuePtrSlot;
  p.search.is_relative_position = false;
  p.search.next_element_ptr_position = kNextPtrSlot;
  p.search.next_element_ptr_valid = true;
  return p;
}

ByteBuffer RemoteLinkedList::ExpectedValue(uint64_t key) const {
  return MakeValueForKey(key, value_size_, seed_);
}

}  // namespace strom
