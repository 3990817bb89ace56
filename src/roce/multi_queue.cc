#include "src/roce/multi_queue.h"

#include "src/common/logging.h"

namespace strom {

MultiQueue::MultiQueue(uint32_t num_qps, uint32_t total_elements)
    : max_qps_(num_qps), slots_(total_elements) {
  // Thread all slots onto the free list.
  for (uint32_t i = 0; i < total_elements; ++i) {
    slots_[i].next = (i + 1 < total_elements) ? i + 1 : kNil;
  }
  free_head_ = total_elements > 0 ? 0 : kNil;
  free_count_ = total_elements;
}

bool MultiQueue::Push(Qpn qpn, const ReadContext& ctx) {
  STROM_CHECK_LT(qpn, max_qps_);
  if (free_head_ == kNil) {
    return false;
  }
  const uint32_t idx = free_head_;
  free_head_ = slots_[idx].next;
  --free_count_;

  Slot& slot = slots_[idx];
  slot.ctx = ctx;
  slot.next = kNil;
  slot.is_tail = true;
  slot.in_use = true;

  ListMeta& list = meta_[qpn];
  if (list.head == kNil) {
    list.head = idx;
  } else {
    slots_[list.tail].next = idx;
    slots_[list.tail].is_tail = false;
  }
  list.tail = idx;
  ++list.count;
  return true;
}

bool MultiQueue::Empty(Qpn qpn) const {
  STROM_CHECK_LT(qpn, max_qps_);
  const ListMeta* list = meta_.Find(qpn);
  return list == nullptr || list->head == kNil;
}

ReadContext& MultiQueue::Head(Qpn qpn) {
  STROM_CHECK(!Empty(qpn)) << "multi-queue list empty for qp " << qpn;
  return slots_[meta_[qpn].head].ctx;
}

void MultiQueue::PopHead(Qpn qpn) {
  STROM_CHECK(!Empty(qpn));
  ListMeta& list = meta_[qpn];
  const uint32_t idx = list.head;
  Slot& slot = slots_[idx];
  list.head = slot.is_tail ? kNil : slot.next;
  if (list.head == kNil) {
    list.tail = kNil;
  }
  --list.count;

  slot.in_use = false;
  slot.next = free_head_;
  free_head_ = idx;
  ++free_count_;
}

uint32_t MultiQueue::Size(Qpn qpn) const {
  STROM_CHECK_LT(qpn, max_qps_);
  const ListMeta* list = meta_.Find(qpn);
  return list == nullptr ? 0 : list->count;
}

}  // namespace strom
