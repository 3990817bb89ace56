#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace strom {

namespace {
// 4-ary layout: children of i are 4i+1..4i+4, parent is (i-1)/4. The wider
// fan-out halves the tree depth vs a binary heap, trading a few extra
// comparisons per level for fewer cache-missing node moves.
constexpr size_t kArity = 4;
}  // namespace

void EventQueue::Push(SimTime when, Callback fn) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  }
  HeapInsert(HeapNode{when, next_seq_++, slot});
  ++size_;
}

void EventQueue::PushPoll(SimTime when, Poller* poller) {
  const size_t cap = lane_.size();
  if (lane_size_ == cap) {
    // Full: unroll the ring into a buffer twice as large.
    std::vector<LaneEntry> grown(std::max<size_t>(16, 2 * cap));
    for (size_t i = 0; i < lane_size_; ++i) {
      grown[i] = lane_[(lane_head_ + i) & (cap - 1)];
    }
    lane_.swap(grown);
    lane_head_ = 0;
  }
  const size_t mask = lane_.size() - 1;
  if (lane_size_ > 0) {
    STROM_CHECK_GE(when, lane_[(lane_head_ + lane_size_ - 1) & mask].when)
        << "poll lane entry pushed before the lane's back";
  }
  lane_[(lane_head_ + lane_size_) & mask] = LaneEntry{when, next_seq_++, poller};
  ++lane_size_;
  ++size_;
}

EventQueue::TimerId EventQueue::CreateTimer(Callback fn) {
  const uint32_t idx = static_cast<uint32_t>(timers_.size());
  STROM_CHECK_LT(idx, kTimerBit) << "timer slab overflow";
  timers_.emplace_back();
  Timer& t = timers_.back();
  t.fn = std::move(fn);
  t.gen = 1;
  return TimerId{idx, 1};
}

EventQueue::Timer& EventQueue::CheckedTimer(TimerId id) {
  STROM_CHECK(id.idx < timers_.size() && timers_[id.idx].gen == id.gen)
      << "stale or invalid timer handle";
  return timers_[id.idx];
}

void EventQueue::ArmTimer(TimerId id, SimTime when) {
  Timer& t = CheckedTimer(id);
  if (t.pending) {
    RemoveHeapAt(t.pos);
  } else {
    ++size_;
  }
  HeapInsert(HeapNode{when, next_seq_++, id.idx | kTimerBit});
}

bool EventQueue::CancelTimer(TimerId id) {
  if (!id.valid()) {
    return false;
  }
  Timer& t = CheckedTimer(id);
  if (!t.pending) {
    return false;
  }
  RemoveHeapAt(t.pos);
  t.pending = false;
  --size_;
  return true;
}

bool EventQueue::TimerPending(TimerId id) const {
  if (!id.valid() || id.idx >= timers_.size() || timers_[id.idx].gen != id.gen) {
    return false;
  }
  return timers_[id.idx].pending;
}

SimTime EventQueue::NextTime() const {
  STROM_CHECK(!empty());
  return LaneFirst() ? lane_[lane_head_].when : heap_.front().when;
}

EventQueue::Event EventQueue::Pop() {
  STROM_CHECK(!empty());
  Event out;
  if (LaneFirst()) {
    const LaneEntry& front = lane_[lane_head_];
    out.when = front.when;
    out.seq = front.seq;
    out.poller = front.poller;
    lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
    --lane_size_;
    --size_;
    return out;
  }
  const HeapNode top = heap_.front();
  const HeapNode back = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    PlaceNode(0, back);
    SiftDown(0);
  }
  out.when = top.when;
  out.seq = top.seq;
  if (top.slot & kTimerBit) {
    Timer& t = timers_[top.slot & ~kTimerBit];
    // Idle before the callback runs, so the callback can re-arm itself.
    t.pending = false;
    out.timer_fn = &t.fn;
  } else {
    out.fn = std::move(slots_[top.slot]);
    free_slots_.push_back(top.slot);
  }
  --size_;
  return out;
}

void EventQueue::Clear() {
  heap_.clear();
  slots_.clear();
  free_slots_.clear();
  timers_.clear();
  lane_.clear();
  lane_head_ = 0;
  lane_size_ = 0;
  size_ = 0;
}

void EventQueue::HeapInsert(const HeapNode& node) {
  if (node.slot & kTimerBit) {
    timers_[node.slot & ~kTimerBit].pending = true;
  }
  heap_.push_back(node);
  SiftUp(heap_.size() - 1);  // final PlaceNode records a timer's position
}

void EventQueue::RemoveHeapAt(size_t pos) {
  STROM_CHECK_LT(pos, heap_.size());
  const HeapNode back = heap_.back();
  heap_.pop_back();
  if (pos >= heap_.size()) {
    return;  // removed the tail node
  }
  PlaceNode(pos, back);
  if (pos > 0 && Before(heap_[pos], heap_[(pos - 1) / kArity])) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

void EventQueue::SiftUp(size_t i) {
  HeapNode node = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Before(node, heap_[parent])) {
      break;
    }
    PlaceNode(i, heap_[parent]);
    i = parent;
  }
  PlaceNode(i, node);
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  HeapNode node = heap_[i];
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
    if (!Before(heap_[best], node)) {
      break;
    }
    PlaceNode(i, heap_[best]);
    i = best;
  }
  PlaceNode(i, node);
}

}  // namespace strom
