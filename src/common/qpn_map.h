// QpnMap: a pooled, QPN-keyed open-addressing hash table holding the RoCE
// stack's one record per QP (RoceStack::QpState: the QP's State Table, MSN
// Table, Multi-Queue and retransmission timer entries and its requester
// state).
//
// The paper's hardware keeps fixed BRAM arrays indexed by QPN, which is the
// right model for a 500-QP on-chip design but wrong for rack-scale runs where
// a host multiplexes thousands of QPs out of a 24-bit namespace: a
// vector<Entry>(max_qps) per table costs memory proportional to the
// configured ceiling even when three QPs are connected. QpnMap stores only
// the QPs that have been touched and grows by doubling, so per-QP state costs
// O(active QPs) while keeping the auto-create-on-first-touch semantics the
// fixed arrays gave the stack (`map[qpn]` is always valid, default-initialized
// on first use — exactly like indexing the old vector).
//
// Layout: the probe table holds only 8-byte {qpn, value-index} slots and the
// values live in a separate stable pool. Probing a rack-scale table therefore
// walks a few megabytes of keys instead of striding across hundreds of bytes
// of per-QP state per probe (each of which was a guaranteed cache miss at
// 100k+ sessions), and values never move: references returned by operator[]
// or Find stay valid across later inserts and rehashes.
//
// Determinism note: iteration (ForEach) visits slots in table order, which
// depends only on the sequence of inserts — identical across runs with the
// same workload. Nothing in the stack derives packet-visible behavior from
// iteration order; it is used for telemetry aggregation only.
#ifndef SRC_COMMON_QPN_MAP_H_
#define SRC_COMMON_QPN_MAP_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/types.h"

namespace strom {

template <typename T>
class QpnMap {
 public:
  explicit QpnMap(uint32_t initial_slots = 16) { keys_.assign(RoundUpPow2(initial_slots), Key{}); }

  // Lookup-or-create. Values are pooled in a deque, so references stay valid
  // across any sequence of later inserts and rehashes.
  T& operator[](Qpn qpn) {
    size_t i = FindIndex(qpn);
    if (keys_[i].idx == kNil) {
      if ((size_ + 1) * 4 > keys_.size() * 3) {  // load factor 3/4
        Rehash(keys_.size() * 2);
        i = FindIndex(qpn);
      }
      keys_[i].qpn = qpn;
      keys_[i].idx = static_cast<uint32_t>(values_.size());
      values_.emplace_back();
      ++size_;
    }
    return values_[keys_[i].idx];
  }

  // Lookup without insertion; nullptr on miss.
  const T* Find(Qpn qpn) const {
    const Key& key = keys_[FindIndex(qpn)];
    return key.idx != kNil ? &values_[key.idx] : nullptr;
  }
  T* Find(Qpn qpn) {
    const Key& key = keys_[FindIndex(qpn)];
    return key.idx != kNil ? &values_[key.idx] : nullptr;
  }

  bool Contains(Qpn qpn) const { return Find(qpn) != nullptr; }

  size_t size() const { return size_; }
  size_t slot_count() const { return keys_.size(); }

  // Visits every live entry in table order (deterministic for a fixed insert
  // sequence). Telemetry/aggregation use only.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (const Key& key : keys_) {
      if (key.idx != kNil) {
        fn(key.qpn, values_[key.idx]);
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Key& key : keys_) {
      if (key.idx != kNil) {
        fn(key.qpn, values_[key.idx]);
      }
    }
  }

 private:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  struct Key {
    Qpn qpn = 0;
    uint32_t idx = kNil;  // index into values_; kNil = empty slot
  };

  static uint32_t RoundUpPow2(uint32_t n) {
    uint32_t p = 1;
    while (p < n) {
      p <<= 1;
    }
    return p < 2 ? 2 : p;
  }

  // QPNs are typically allocated densely, so identity hashing with linear
  // probing gives collision-free placement for the common case; the
  // multiplicative mix keeps clustered-but-strided allocations (e.g. per-host
  // QPN bases 1000/2000/...) from degenerating.
  size_t SlotIndex(Qpn qpn) const {
    uint64_t h = (static_cast<uint64_t>(qpn) * 0x9E3779B97F4A7C15ull) >> 40;
    return (h ^ qpn) & (keys_.size() - 1);
  }

  size_t FindIndex(Qpn qpn) const {
    const size_t mask = keys_.size() - 1;
    size_t i = SlotIndex(qpn);
    while (keys_[i].idx != kNil && keys_[i].qpn != qpn) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Rehash(size_t new_slots) {
    std::vector<Key> old = std::move(keys_);
    keys_.assign(new_slots, Key{});
    for (const Key& key : old) {
      if (key.idx != kNil) {
        keys_[FindIndex(key.qpn)] = key;
      }
    }
  }

  std::vector<Key> keys_;
  std::deque<T> values_;  // stable addresses; indexed by Key::idx
  size_t size_ = 0;
};

}  // namespace strom

#endif  // SRC_COMMON_QPN_MAP_H_
