#include "src/sim/event_queue.h"

#include <algorithm>
#include <bit>

#include "src/common/logging.h"

namespace strom {

namespace {
// Overflow heap layout: children of i are 4i+1..4i+4, parent is (i-1)/4.
// The wider fan-out halves the tree depth vs a binary heap, trading a few
// extra comparisons per level for fewer cache-missing entry moves.
constexpr size_t kArity = 4;
}  // namespace

uint32_t EventQueue::GrowSlots() {
  const uint32_t slot = static_cast<uint32_t>(nodes_.size());
  STROM_CHECK_LT(slot, kTimerBit) << "event slot slab overflow";
  if ((slot & ((1u << kChunkShift) - 1)) == 0) {
    chunks_.push_back(std::make_unique<SmallCallback[]>(size_t{1} << kChunkShift));
  }
  nodes_.emplace_back();
  return slot;
}

void EventQueue::Insert(uint32_t slot, SimTime when) {
  Node& n = nodes_[slot];
  n.when = when;
  n.seq = next_seq_++;
  ++size_;
  Place(slot);
}

EventQueue::Node& EventQueue::CheckedTimer(TimerId id) {
  STROM_CHECK(id.idx < nodes_.size() && nodes_[id.idx].pos != kOneShot)
      << "stale or invalid timer handle";
  return nodes_[id.idx];
}

void EventQueue::ArmTimer(TimerId id, SimTime when) {
  Node& n = CheckedTimer(id);
  if (n.pos != kIdle) {
    Unplace(id.idx);
  } else {
    ++size_;
  }
  n.when = when;
  n.seq = next_seq_++;
  Place(id.idx);
}

bool EventQueue::CancelTimer(TimerId id) {
  if (!id.valid()) {
    return false;
  }
  Node& n = CheckedTimer(id);
  if (n.pos == kIdle) {
    return false;
  }
  Unplace(id.idx);
  n.pos = kIdle;
  --size_;
  return true;
}

bool EventQueue::TimerPending(TimerId id) const {
  if (!id.valid() || id.idx >= nodes_.size()) {
    return false;
  }
  const uint32_t pos = nodes_[id.idx].pos;
  return pos != kOneShot && pos != kIdle;
}

void EventQueue::Place(uint32_t slot) {
  Node& n = nodes_[slot];
  STROM_CHECK_GE(n.when, last_pop_) << "event pushed behind the last pop";
  const uint64_t bucket = static_cast<uint64_t>(n.when) >> kBucketShift;
  const uint64_t base = static_cast<uint64_t>(last_pop_) >> kBucketShift;
  if (bucket - base < kBuckets && RingInsert(slot, static_cast<uint32_t>(bucket) & (kBuckets - 1))) {
    if (n.pos != kOneShot) {
      n.pos = kInRing;
    }
    return;
  }
  HeapInsert(HeapEntry{n.when, n.seq, n.pos == kOneShot ? slot : slot | kTimerBit});
}

void EventQueue::Unplace(uint32_t slot) {
  const uint32_t pos = nodes_[slot].pos;
  if (pos == kInRing) {
    RingUnlink(slot);
  } else {
    RemoveHeapAt(pos);
  }
}

// The new entry has the largest seq so far, so it belongs after every entry
// of its bucket whose `when` is not later than its own: walk back from the
// tail past the later ones, at most kMaxShift of them.
bool EventQueue::RingInsert(uint32_t slot, uint32_t bucket) {
  Node& n = nodes_[slot];
  Bucket& b = buckets_[bucket];
  uint32_t after = b.tail;
  for (int shifted = 0; after != kNone && nodes_[after].when > n.when; ++shifted) {
    if (shifted == kMaxShift) {
      return false;
    }
    after = nodes_[after].prev;
  }
  n.prev = after;
  if (after == kNone) {
    n.next = b.head;
    b.head = slot;
  } else {
    n.next = nodes_[after].next;
    nodes_[after].next = slot;
  }
  if (n.next == kNone) {
    b.tail = slot;
  } else {
    nodes_[n.next].prev = slot;
  }
  occupied_[bucket >> 6] |= uint64_t{1} << (bucket & 63);
  occupied_words_ |= static_cast<uint16_t>(1u << (bucket >> 6));
  return true;
}

void EventQueue::RingUnlink(uint32_t slot) {
  const Node& n = nodes_[slot];
  const uint32_t bucket =
      static_cast<uint32_t>(static_cast<uint64_t>(n.when) >> kBucketShift) & (kBuckets - 1);
  Bucket& b = buckets_[bucket];
  if (n.prev == kNone) {
    b.head = n.next;
  } else {
    nodes_[n.prev].next = n.next;
  }
  if (n.next == kNone) {
    b.tail = n.prev;
  } else {
    nodes_[n.next].prev = n.prev;
  }
  if (b.head == kNone) {
    uint64_t& word = occupied_[bucket >> 6];
    word &= ~(uint64_t{1} << (bucket & 63));
    if (word == 0) {
      occupied_words_ &= static_cast<uint16_t>(~(1u << (bucket >> 6)));
    }
  }
}

// Every ring entry lies in the kBuckets buckets from the last pop's on, so
// the first occupied bucket at or after the last pop's position, going
// round the ring, holds the earliest one.
uint32_t EventQueue::RingFront() const {
  const uint32_t start =
      static_cast<uint32_t>(static_cast<uint64_t>(last_pop_) >> kBucketShift) & (kBuckets - 1);
  uint32_t w = start >> 6;
  uint64_t bits = occupied_[w] & (~uint64_t{0} << (start & 63));
  if (bits == 0) {
    if (occupied_words_ == 0) {
      return kNone;
    }
    // The next non-empty word after w, round the ring; w itself comes last,
    // and then only its buckets before `start` (the window's far end) remain.
    w = (w + 1 + std::countr_zero(std::rotr(occupied_words_, static_cast<int>(w + 1)))) &
        (kWords - 1);
    bits = occupied_[w];
  }
  return buckets_[(w << 6) | std::countr_zero(bits)].head;
}

SimTime EventQueue::NextTime() const {
  STROM_CHECK(!empty());
  const uint32_t ring_front = RingFront();
  return HeapFirst(ring_front) ? heap_.front().when : nodes_[ring_front].when;
}

EventQueue::Event EventQueue::Pop() {
  STROM_CHECK(!empty());
  const uint32_t ring_front = RingFront();
  Event out;
  uint32_t slot = ring_front;
  if (HeapFirst(ring_front)) {
    const HeapEntry top = heap_.front();
    const HeapEntry back = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      PlaceEntry(0, back);
      SiftDown(0);
    }
    out.when = top.when;
    out.seq = top.seq;
    slot = top.slot & ~kTimerBit;
  } else {
    RingUnlink(slot);
    out.when = nodes_[slot].when;
    out.seq = nodes_[slot].seq;
  }
  Node& n = nodes_[slot];
  if (n.pos == kOneShot) {
    out.free_slot = slot;
  } else {
    n.pos = kIdle;  // idle before the callable runs, so it can re-arm itself
  }
  out.fn = &Slot(slot);
  --size_;
  last_pop_ = out.when;
  return out;
}

void EventQueue::Clear() {
  buckets_.fill(Bucket{});
  occupied_.fill(0);
  occupied_words_ = 0;
  last_pop_ = 0;
  heap_.clear();
  chunks_.clear();
  nodes_.clear();
  free_slots_.clear();
  size_ = 0;
}

void EventQueue::HeapInsert(const HeapEntry& e) {
  heap_.push_back(e);
  SiftUp(heap_.size() - 1);  // the final PlaceEntry records a timer's position
}

void EventQueue::RemoveHeapAt(size_t pos) {
  STROM_CHECK_LT(pos, heap_.size());
  const HeapEntry back = heap_.back();
  heap_.pop_back();
  if (pos >= heap_.size()) {
    return;  // removed the tail entry
  }
  PlaceEntry(pos, back);
  if (pos > 0 && Before(heap_[pos], heap_[(pos - 1) / kArity])) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

void EventQueue::SiftUp(size_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Before(e, heap_[parent])) {
      break;
    }
    PlaceEntry(i, heap_[parent]);
    i = parent;
  }
  PlaceEntry(i, e);
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  const HeapEntry e = heap_[i];
  for (;;) {
    const size_t first_child = kArity * i + 1;
    if (first_child >= n) {
      break;
    }
    size_t best = first_child;
    const size_t last_child = std::min(first_child + kArity, n);
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], e)) {
      break;
    }
    PlaceEntry(i, heap_[best]);
    i = best;
  }
  PlaceEntry(i, e);
}

}  // namespace strom
