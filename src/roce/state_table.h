// State Table and MSN Table entries (paper §4.1, Fig 2/3).
//
// The State Table stores, per queue pair, the packet sequence numbers that
// define the valid / invalid / duplicate PSN regions — once for the NIC's
// responder role and once for its requester role. The MSN Table stores the
// message sequence number and the current DMA address, needed because for
// multi-packet writes only the first packet carries the address. The NIC
// indexes both tables by QPN; here each entry is part of the QP's one record
// (RoceStack::QpState).
#ifndef SRC_ROCE_STATE_TABLE_H_
#define SRC_ROCE_STATE_TABLE_H_

#include <cstdint>

#include "src/common/types.h"

namespace strom {

// Classification of an incoming request PSN against the expected PSN.
enum class PsnCheck {
  kExpected,   // psn == ePSN: process and advance
  kDuplicate,  // behind ePSN within the duplicate window: re-ack, drop payload
  kInvalid,    // ahead of ePSN: NAK(sequence error) and drop
};

// The Fig 3 check: classifies a request's `psn` against the ePSN.
inline PsnCheck CheckRequestPsn(Psn epsn, Psn psn) {
  const int32_t d = PsnDistance(epsn, psn);
  if (d == 0) {
    return PsnCheck::kExpected;
  }
  return d < 0 ? PsnCheck::kDuplicate : PsnCheck::kInvalid;
}

// QP lifecycle. kReady QPs move packets; a QP enters kError when its retry
// budget exhausts or a remote/DMA operational error surfaces, after which
// every queued and future work request completes in error until ResetQp +
// ConnectQp re-establish it with fresh PSNs.
enum class QpPhase {
  kReady,
  kError,
};

struct StateTableEntry {
  QpPhase phase = QpPhase::kReady;
  // Responder role.
  Psn epsn = 0;              // expected PSN of the next request packet
  bool nak_armed = true;     // only one NAK per out-of-sequence episode
  // Requester role.
  Psn next_psn = 0;          // PSN assigned to the next outgoing request packet
  Psn oldest_unacked = 0;    // retransmission point
};

struct MsnTableEntry {
  uint32_t msn = 0;           // completed message count (returned in AETH)
  VirtAddr dma_addr = 0;      // current write target for in-flight message
  uint32_t rpc_opcode = 0;    // in-flight RPC WRITE stream target kernel
};

}  // namespace strom

#endif  // SRC_ROCE_STATE_TABLE_H_
