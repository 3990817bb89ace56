#include "src/roce/multi_queue.h"

#include <utility>

#include "src/common/logging.h"

namespace strom {

MultiQueue::MultiQueue(uint32_t total_elements) : slots_(total_elements) {
  // Thread all slots onto the free list.
  for (uint32_t i = 0; i < total_elements; ++i) {
    slots_[i].next = (i + 1 < total_elements) ? i + 1 : kNil;
  }
  free_head_ = total_elements > 0 ? 0 : kNil;
  free_count_ = total_elements;
}

void MultiQueue::Push(List& list, ReadContext ctx) {
  STROM_CHECK(!full()) << "multi-queue full";
  const uint32_t idx = free_head_;
  free_head_ = slots_[idx].next;
  --free_count_;

  Slot& slot = slots_[idx];
  slot.ctx = std::move(ctx);
  slot.next = kNil;
  slot.is_tail = true;

  if (list.head == kNil) {
    list.head = idx;
  } else {
    slots_[list.tail].next = idx;
    slots_[list.tail].is_tail = false;
  }
  list.tail = idx;
  ++list.count;
}

ReadContext& MultiQueue::Head(const List& list) {
  STROM_CHECK(!Empty(list)) << "multi-queue list empty";
  return slots_[list.head].ctx;
}

void MultiQueue::PopHead(List& list) {
  STROM_CHECK(!Empty(list));
  const uint32_t idx = list.head;
  Slot& slot = slots_[idx];
  list.head = slot.is_tail ? kNil : slot.next;
  if (list.head == kNil) {
    list.tail = kNil;
  }
  --list.count;

  slot.ctx = ReadContext{};
  slot.next = free_head_;
  free_head_ = idx;
  ++free_count_;
}

}  // namespace strom
