// Priority queue of timed events. Ties are broken by insertion order so the
// simulation is fully deterministic.
//
// Calendar queue (DESIGN.md §13). A ring of kBuckets buckets, each 2^12 ps
// wide, holds the deadlines that fall within the window past the last pop.
// Each bucket is a doubly linked list kept in (when, seq) order, and an
// occupancy bitmap finds the next non-empty one. An indexed 4-ary min-heap
// is the overflow tier: it takes deadlines past the window and any push that
// would walk back past more than kMaxShift entries of a dense bucket. Pop()
// takes the earlier of the ring front and the overflow top by one
// comparator, and every entry takes its seq when it is pushed, so the pop
// order is that of a single heap over all entries.
//
// Callables are built in place in a chunked slot slab whose addresses never
// move. A popped event runs in its slot (Run) and the slot is freed after,
// so the steady-state schedule/fire cycle neither allocates nor moves a
// callable.
//
// Cancellable timers: CreateTimer builds a persistent callable in a slot the
// timer keeps; ArmTimer/CancelTimer physically insert/remove the deadline
// (unlinked from its bucket, or removed from the overflow heap through the
// position the timer's node records) instead of letting tombstones pop
// through the queue. Re-arming reuses the installed callable, so a timer that
// is armed, cancelled, and re-armed millions of times never allocates.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/small_callback.h"
#include "src/sim/time.h"

namespace strom {

// Kept only for perfbench/stromperf.cc's config line; there is one event core.
enum class EventQueueMode { kHeap, kWheel };
inline EventQueueMode GetEventQueueMode() { return EventQueueMode::kHeap; }

class EventQueue {
 public:
  static constexpr uint32_t kInvalidTimer = 0xFFFFFFFFu;

  // Handle to a cancellable timer. Copyable value; a default-constructed
  // handle is invalid (valid() == false).
  struct TimerId {
    uint32_t idx = kInvalidTimer;  // the timer's slot
    bool valid() const { return idx != kInvalidTimer; }
  };

  // Builds `fn` in a free slot and schedules it at `when`, which must be no
  // earlier than the last pop (checked).
  template <typename F>
  void Push(SimTime when, F&& fn) {
    const uint32_t slot = AllocSlot();
    Slot(slot).Emplace(std::forward<F>(fn));
    Insert(slot, when);
  }

  // Builds `fn` as a persistent callable in a slot of its own and returns a
  // handle. The timer starts idle; ArmTimer schedules it. The callable is
  // retained across fires, so re-arming after expiry is allocation-free.
  template <typename F>
  TimerId CreateTimer(F&& fn) {
    const uint32_t slot = AllocSlot();
    Slot(slot).Emplace(std::forward<F>(fn));
    nodes_[slot].pos = kIdle;  // marks the slot as a timer's for good
    return TimerId{slot};
  }
  // Schedules (idle timer) or physically moves (pending timer) the deadline.
  // Takes a fresh seq either way, exactly like a Push at the same point.
  void ArmTimer(TimerId id, SimTime when);
  // Disarms the timer; the entry is physically removed, never tombstoned.
  // Returns whether it was pending (false = already fired or never armed).
  bool CancelTimer(TimerId id);
  bool TimerPending(TimerId id) const;

  // Ring and overflow entries alike.
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  // Timestamp of the earliest event. Precondition: !empty().
  SimTime NextTime() const;
  // Entries in the overflow heap (the rest are in the ring).
  size_t overflow_size() const { return heap_.size(); }

  // A popped event. Its callable has not moved: it runs in its slot.
  struct Event {
    SimTime when;
    uint64_t seq;
    SmallCallback* fn = nullptr;  // one-shot or timer callable
    uint32_t free_slot = kNone;   // a one-shot's slot, freed after its run
  };
  // Takes the earliest event out of the order. Run() it exactly once before
  // the queue is cleared. Precondition: !empty().
  Event Pop();
  // Runs a popped event in place, then frees a one-shot's slot. A timer is
  // idle before its callable runs, so the callable can re-arm it.
  void Run(const Event& ev) {
    (*ev.fn)();
    if (ev.free_slot != kNone) {
      ev.fn->Reset();
      free_slots_.push_back(ev.free_slot);
    }
  }

  void Clear();

 private:
  // 1,024 buckets of 2^12 ps: a window of 2^22 ps (≈ 4.2 µs) past the last
  // pop, which holds the fixed pipeline, wire and DMA delays that carry
  // nearly every one-shot (DESIGN.md §13).
  static constexpr int kBucketShift = 12;
  static constexpr uint32_t kBuckets = 1024;
  static constexpr uint32_t kWords = kBuckets / 64;  // occupancy bitmap words
  // A push that would walk back past more entries of its bucket than this
  // goes to the overflow heap instead.
  static constexpr int kMaxShift = 8;

  // No slot: the end of a bucket list, or nothing to free after a run.
  static constexpr uint32_t kNone = 0xFFFFFFFFu;
  // Node::pos values beside an overflow-heap index.
  static constexpr uint32_t kOneShot = 0xFFFFFFFFu;
  static constexpr uint32_t kIdle = 0xFFFFFFFEu;
  static constexpr uint32_t kInRing = 0xFFFFFFFDu;
  // Set in a heap entry's slot when the slot is a timer's.
  static constexpr uint32_t kTimerBit = 0x80000000u;
  // Slots per slab chunk.
  static constexpr uint32_t kChunkShift = 8;

  // One per slot: the entry's key, its bucket-list links while it is in the
  // ring, and for a timer's slot where the pending deadline is.
  struct Node {
    SimTime when = 0;
    uint64_t seq = 0;
    uint32_t prev = kNone;
    uint32_t next = kNone;
    uint32_t pos = kOneShot;  // a timer's: kIdle, kInRing or its heap index
  };

  struct Bucket {
    uint32_t head = kNone;
    uint32_t tail = kNone;
  };

  struct HeapEntry {
    SimTime when;
    uint64_t seq;
    uint32_t slot;  // kTimerBit set when the slot is a timer's
  };

  // Earlier time wins; same-time events fire in insertion (seq) order.
  template <typename A, typename B>
  static bool Before(const A& a, const B& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  SmallCallback& Slot(uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & ((1u << kChunkShift) - 1)];
  }
  uint32_t AllocSlot() {
    if (free_slots_.empty()) {
      return GrowSlots();
    }
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  uint32_t GrowSlots();
  Node& CheckedTimer(TimerId id);

  void Insert(uint32_t slot, SimTime when);
  // Files a keyed node in its bucket, or in the overflow heap.
  void Place(uint32_t slot);
  void Unplace(uint32_t slot);
  bool RingInsert(uint32_t slot, uint32_t bucket);
  void RingUnlink(uint32_t slot);
  // Slot at the front of the earliest non-empty bucket, or kNone.
  uint32_t RingFront() const;
  // Whether the overflow top pops before the ring front.
  bool HeapFirst(uint32_t ring_front) const {
    return !heap_.empty() && (ring_front == kNone || Before(heap_.front(), nodes_[ring_front]));
  }

  // Defined in the class so GCC inlines it into the sift loops.
  void PlaceEntry(size_t i, const HeapEntry& e) {
    heap_[i] = e;
    if (e.slot & kTimerBit) {
      nodes_[e.slot & ~kTimerBit].pos = static_cast<uint32_t>(i);
    }
  }
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void HeapInsert(const HeapEntry& e);
  void RemoveHeapAt(size_t pos);

  // Calendar ring.
  std::array<Bucket, kBuckets> buckets_;
  std::array<uint64_t, kWords> occupied_{};  // bit b: bucket b non-empty
  uint16_t occupied_words_ = 0;              // bit w: occupied_[w] != 0
  SimTime last_pop_ = 0;

  // Slot slab: callables in fixed-size chunks (stable addresses), and a
  // node per slot.
  std::vector<std::unique_ptr<SmallCallback[]>> chunks_;
  std::vector<Node> nodes_;
  std::vector<uint32_t> free_slots_;

  std::vector<HeapEntry> heap_;  // overflow tier
  uint64_t next_seq_ = 0;
  size_t size_ = 0;
};

}  // namespace strom

#endif  // SRC_SIM_EVENT_QUEUE_H_
