// Remote linked list (paper §6.2, Fig 6): the collision-chain structure some
// key-value stores keep for keys hashing to the same position. Elements are
// 64 B with the paper's example layout: key in slot 0 (keyMask = 1), next
// pointer in slot 2, value pointer in slot 4 (valuePtrPosition = 4).
#ifndef SRC_KVS_LINKED_LIST_H_
#define SRC_KVS_LINKED_LIST_H_

#include <vector>

#include "src/host/driver.h"
#include "src/kernels/traversal.h"

namespace strom {

class RemoteLinkedList {
 public:
  static constexpr uint8_t kKeySlot = 0;
  static constexpr uint8_t kNextPtrSlot = 2;
  static constexpr uint8_t kValuePtrSlot = 4;

  // Builds a list with the given keys (head first) in `element_region`;
  // values of `value_size` bytes (deterministic from key and seed) go to
  // `value_region`. Both regions must be pinned via AllocBuffer.
  static Result<RemoteLinkedList> Build(RoceDriver& driver, VirtAddr element_region,
                                        VirtAddr value_region,
                                        const std::vector<uint64_t>& keys,
                                        uint32_t value_size, uint64_t seed);

  VirtAddr head() const { return head_; }
  uint32_t value_size() const { return value_size_; }
  size_t length() const { return keys_.size(); }
  const std::vector<uint64_t>& keys() const { return keys_; }

  // Traversal-kernel parameters to look up `key`, writing the response to
  // `target_addr` on the requester.
  TraversalParams LookupParams(uint64_t key, VirtAddr target_addr) const;

  // Expected value bytes for `key` (for verification).
  ByteBuffer ExpectedValue(uint64_t key) const;

 private:
  RemoteLinkedList() = default;

  VirtAddr head_ = 0;
  uint32_t value_size_ = 0;
  uint64_t seed_ = 0;
  std::vector<uint64_t> keys_;
};

// Deterministic value payload for a key (first 8 bytes are the key itself,
// so values are non-zero and identifiable).
ByteBuffer MakeValueForKey(uint64_t key, uint32_t value_size, uint64_t seed);

}  // namespace strom

#endif  // SRC_KVS_LINKED_LIST_H_
