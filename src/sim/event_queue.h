// Priority queue of timed events. Ties are broken by insertion order so the
// simulation is fully deterministic.
//
// Indexed 4-ary min-heap (DESIGN.md §13): the heap array holds small
// {when, seq, slot} nodes (cheap to move and compare), while the callbacks
// live in a slab of SmallCallback slots recycled through a free list. With
// the callback's inline buffer this makes the steady-state schedule/fire
// cycle allocation-free.
//
// Cancellable timers: CreateTimer installs a persistent callback in a timer
// slab; ArmTimer/CancelTimer physically insert/remove the deadline in
// O(log n) instead of letting generation-checked tombstones pop through the
// queue. Re-arming reuses the installed callback, so a timer that is armed,
// cancelled, and re-armed millions of times never allocates.
//
// Poll lane: a FIFO beside the heap for fixed-interval re-checks (a host
// thread spinning on a word). Every entry is pushed at now + one interval
// with the next seq, so the FIFO is already sorted by (when, seq) and Pop()
// merges it with the heap by the same comparator: pop order, seqs and the
// event count are exactly those of scheduling each tick as a heap event.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/sim/small_callback.h"
#include "src/sim/time.h"

namespace strom {

// Kept only for perfbench/stromperf.cc's config line; the heap is the only core.
enum class EventQueueMode { kHeap, kWheel };
inline EventQueueMode GetEventQueueMode() { return EventQueueMode::kHeap; }

class EventQueue {
 public:
  using Callback = SmallCallback;

  static constexpr uint32_t kInvalidTimer = 0xFFFFFFFFu;

  // Handle to a slab-resident cancellable timer. Copyable value; a
  // default-constructed handle is invalid (valid() == false).
  struct TimerId {
    uint32_t idx = kInvalidTimer;
    uint32_t gen = 0;
    bool valid() const { return idx != kInvalidTimer; }
  };

  // A poll-lane client. Tick() runs when its entry pops; a poller that
  // keeps spinning pushes itself again with PushPoll.
  class Poller {
   public:
    virtual void Tick() = 0;

   protected:
    ~Poller() = default;
  };

  void Push(SimTime when, Callback fn);

  // Appends a poll-lane entry with the next seq. `when` must be no earlier
  // than the last queued lane entry's (checked), which holds when every
  // entry is pushed at now + one fixed interval.
  void PushPoll(SimTime when, Poller* poller);

  // Installs `fn` as a persistent callback and returns a handle. The timer
  // starts idle; ArmTimer schedules it. The callback is retained across
  // fires, so re-arming after expiry is allocation-free.
  TimerId CreateTimer(Callback fn);
  // Schedules (idle timer) or physically moves (pending timer) the deadline.
  // Takes a fresh seq either way, exactly like a Push at the same point.
  void ArmTimer(TimerId id, SimTime when);
  // Disarms the timer; the entry is physically removed, never tombstoned.
  // Returns whether it was pending (false = already fired or never armed).
  bool CancelTimer(TimerId id);
  bool TimerPending(TimerId id) const;

  // Heap and poll-lane entries alike.
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  // Timestamp of the earliest event. Precondition: !empty().
  SimTime NextTime() const;

  // Pops and returns the earliest event. Precondition: !empty().
  struct Event {
    SimTime when;
    uint64_t seq;
    Callback fn;                // one-shot payload (moved out of the slab)
    Callback* timer_fn = nullptr;  // persistent timer callback (fires in place)
    Poller* poller = nullptr;      // poll-lane entry
    void Run() {
      if (poller != nullptr) {
        poller->Tick();
      } else if (timer_fn != nullptr) {
        (*timer_fn)();
      } else {
        fn();
      }
    }
  };
  Event Pop();

  void Clear();

 private:
  static constexpr uint32_t kTimerBit = 0x80000000u;

  struct HeapNode {
    SimTime when;
    uint64_t seq;
    uint32_t slot;  // kTimerBit set: timer slab index; clear: callback slot
  };

  struct LaneEntry {
    SimTime when;
    uint64_t seq;
    Poller* poller;
  };

  // Earlier time wins; same-time events fire in insertion (seq) order.
  template <typename A, typename B>
  static bool Before(const A& a, const B& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  struct Timer {
    Callback fn;
    uint32_t gen = 0;
    bool pending = false;
    uint32_t pos = 0;  // heap index while pending
  };

  Timer& CheckedTimer(TimerId id);
  // Defined in the class so GCC inlines it into the sift loops; out of line
  // it slows micro_sim_hotpaths' EventQueueSameTimestampBurst measurably.
  void PlaceNode(size_t i, const HeapNode& node) {
    heap_[i] = node;
    if (node.slot & kTimerBit) {
      timers_[node.slot & ~kTimerBit].pos = static_cast<uint32_t>(i);
    }
  }
  // Whether the next pop comes from the poll lane rather than the heap.
  bool LaneFirst() const {
    return lane_size_ > 0 && (heap_.empty() || Before(lane_[lane_head_], heap_.front()));
  }
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void HeapInsert(const HeapNode& node);
  void RemoveHeapAt(size_t pos);

  std::vector<HeapNode> heap_;
  std::vector<Callback> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
  size_t size_ = 0;

  std::deque<Timer> timers_;  // deque: stable addresses across CreateTimer

  // Poll lane as a ring buffer; its capacity is zero or a power of two.
  std::vector<LaneEntry> lane_;
  size_t lane_head_ = 0;
  size_t lane_size_ = 0;
};

}  // namespace strom

#endif  // SRC_SIM_EVENT_QUEUE_H_
