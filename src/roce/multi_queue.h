// Multi-Queue (paper §4.1): tracks outstanding RDMA READ operations per queue
// pair. Logically one linked list per QP with runtime-variable length; the
// hardware implementation — reproduced here — is two fixed-size arrays in
// on-chip memory: one holding per-list metadata (head/tail), one holding all
// list elements, where each element stores the local host memory pointer (the
// target of the read), the next-element pointer, and a tail flag. A QP's
// list metadata (MultiQueue::List) is part of its one record
// (RoceStack::QpState); this class owns the element array.
#ifndef SRC_ROCE_MULTI_QUEUE_H_
#define SRC_ROCE_MULTI_QUEUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/types.h"

namespace strom {

struct PendingWr;  // src/roce/stack.h

struct ReadContext {
  std::shared_ptr<PendingWr> wr;  // the READ, completed by its last response
  VirtAddr local_addr = 0;   // where response payload is placed
  uint32_t length = 0;       // total expected bytes
  Psn first_psn = 0;         // PSN of the first response packet
  uint32_t bytes_placed = 0; // progress
};

class MultiQueue {
 public:
  static constexpr uint32_t kNil = 0xFFFFFFFF;

  // One QP's list: the first array's entry.
  struct List {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    uint32_t count = 0;
  };

  explicit MultiQueue(uint32_t total_elements);

  // Whether every element is in use: the combined length of all lists is
  // fixed.
  bool full() const { return free_head_ == kNil; }
  // Appends a read context to `list`. Precondition: !full().
  void Push(List& list, ReadContext ctx);

  static bool Empty(const List& list) { return list.head == kNil; }
  // Head element of the list (responses arrive in order per QP).
  ReadContext& Head(const List& list);
  // Frees the head element, dropping its reference to the READ.
  void PopHead(List& list);

  uint32_t free_elements() const { return free_count_; }
  uint32_t total_elements() const { return static_cast<uint32_t>(slots_.size()); }

 private:
  struct Slot {
    ReadContext ctx;
    uint32_t next = kNil;
    bool is_tail = false;
  };

  std::vector<Slot> slots_;      // second fixed array: all list elements
  uint32_t free_head_ = kNil;    // free list threaded through `next`
  uint32_t free_count_ = 0;
};

}  // namespace strom

#endif  // SRC_ROCE_MULTI_QUEUE_H_
