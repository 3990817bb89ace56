// Multi-Queue (paper §4.1): tracks outstanding RDMA READ operations per queue
// pair. Logically one linked list per QP with runtime-variable length; the
// hardware implementation — reproduced here — is two fixed-size arrays in
// on-chip memory: one holding per-list metadata (head/tail), one holding all
// list elements, where each element stores the local host memory pointer (the
// target of the read), the next-element pointer, and a tail flag.
#ifndef SRC_ROCE_MULTI_QUEUE_H_
#define SRC_ROCE_MULTI_QUEUE_H_

#include <cstdint>
#include <vector>

#include "src/common/qpn_map.h"
#include "src/common/types.h"

namespace strom {

struct ReadContext {
  VirtAddr local_addr = 0;   // where response payload is placed
  uint32_t length = 0;       // total expected bytes
  Psn first_psn = 0;         // PSN of the first response packet
  uint32_t num_packets = 0;  // expected response packets
  uint32_t bytes_placed = 0; // progress
  uint64_t wr_id = 0;
};

class MultiQueue {
 public:
  MultiQueue(uint32_t num_qps, uint32_t total_elements);

  // Appends a read context to the QP's list; fails (returns false) when all
  // elements across all lists are in use — the combined length is fixed.
  bool Push(Qpn qpn, const ReadContext& ctx);

  bool Empty(Qpn qpn) const;
  // Head element of the QP's list (responses arrive in order per QP).
  ReadContext& Head(Qpn qpn);
  void PopHead(Qpn qpn);

  uint32_t Size(Qpn qpn) const;
  uint32_t free_elements() const { return free_count_; }
  uint32_t total_elements() const { return static_cast<uint32_t>(slots_.size()); }

 private:
  static constexpr uint32_t kNil = 0xFFFFFFFF;

  struct ListMeta {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    uint32_t count = 0;
  };
  struct Slot {
    ReadContext ctx;
    uint32_t next = kNil;
    bool is_tail = false;
    bool in_use = false;
  };

  uint32_t max_qps_;             // logical bound on QPN (configured depth)
  QpnMap<ListMeta> meta_;        // per-QP list metadata, pooled by QPN
  std::vector<Slot> slots_;      // second fixed array: all list elements
  uint32_t free_head_ = kNil;    // free list threaded through `next`
  uint32_t free_count_ = 0;
};

}  // namespace strom

#endif  // SRC_ROCE_MULTI_QUEUE_H_
