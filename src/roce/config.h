// RoCE v2 stack configuration and counters. The two profiles used by the
// evaluation (10 G Virtex-7 and 100 G UltraScale+) are built from these knobs
// in src/testbed/calibration.h.
#ifndef SRC_ROCE_CONFIG_H_
#define SRC_ROCE_CONFIG_H_

#include <cstdint>

#include "src/sim/time.h"

namespace strom {

// TX payload staging (paper §4.1: the NIC fetches payload by DMA as it
// packetizes). At most this many payload-fetch DMA commands are in flight,
// and one message holds at most this many chunks fetched or in flight but
// not yet sent, in a ring of this many slots. Deep enough that PCIe read
// latency never caps the message rate below the host command-issue limit
// (paper §7: the host is the limiter), and small enough that a long message
// stages 16 chunks, not the whole message.
inline constexpr uint32_t kTxFetchWindow = 16;

// DCQCN-style per-QP congestion control (Zhu et al., SIGCOMM'15, simplified):
// fabric switches mark ECN-capable packets CE above an egress-queue
// threshold, the receiver echoes the mark back in the BECN bit of its next
// packet on that QP (our CNP), and the sender reacts with a multiplicative
// rate cut followed by additive recovery. Disabled by default: with
// `enable = false` the TX path is byte-identical to the uncontrolled stack.
struct DcqcnConfig {
  bool enable = false;
  // EWMA gain for the congestion estimate alpha (DCQCN's g).
  double alpha_gain = 1.0 / 16;
  // Minimum spacing between multiplicative rate cuts; CNPs arriving inside
  // the window only update alpha (DCQCN reacts once per CNP interval).
  SimTime rate_cut_interval = Us(50);
  // Additive-increase period; each period without a cut raises the rate by
  // `additive_increase_fraction` of line rate and decays alpha.
  SimTime increase_interval = Us(55);
  double additive_increase_fraction = 0.05;
  // Rate floor as a fraction of line rate (a QP is never silenced entirely).
  double min_rate_fraction = 0.01;
};

struct RoceConfig {
  // NIC clock period: 6400 ps = 156.25 MHz (10 G), 3106 ps = 322 MHz (100 G).
  SimTime clock_ps = 6400;
  // Data-path width in bytes: 8 B at 10 G, 64 B at 100 G (paper §3.5/§7).
  uint32_t data_width = 8;
  // IP MTU on the wire (paper: 1500).
  uint32_t ip_mtu = 1500;
  // Compile-time QP capacity; scales the state-table BRAM (paper §6.1).
  uint32_t max_qps = 500;
  // Multi-Queue: total outstanding RDMA READ elements across all QPs.
  uint32_t multi_queue_total = 256;
  // Requester retransmission timeout and cap on exponential backoff.
  SimTime retransmission_timeout = Us(100);
  SimTime retransmission_timeout_max = Ms(5);
  // Consecutive retransmission timeouts without forward progress before the
  // QP transitions to Error and flushes its work queue (IB retry_cnt
  // analogue; 7 is the verbs maximum).
  uint32_t retry_limit = 7;
  // Fixed pipeline depths in cycles. RX: Process IP + UDP + BTH (incl. the
  // 5-cycle State Table interaction of Fig 3) + RETH/AETH FSM. TX: Request
  // Handler + Generate RETH/AETH + BTH + UDP + IP.
  uint32_t rx_pipeline_cycles = 40;
  uint32_t tx_pipeline_cycles = 40;
  // Requester sets the BTH ack-request bit every N packets inside a long
  // message so the retransmission window stays bounded.
  uint32_t ack_request_interval = 32;
  // Mark outgoing data packets ECT(0) so fabric switches may CE-mark them.
  // Off by default: the 2-node testbed has no marking switch, and ECT=0
  // keeps seed captures byte-identical.
  bool ecn_capable = false;
  DcqcnConfig dcqcn;

  // Line rate of the word-serial data path (data_width bytes per clock):
  // the full sending rate DCQCN recovers toward.
  double LineRateBps() const {
    return double(data_width) * 8.0 * 1e12 / double(clock_ps);
  }

  // Payload bytes per packet at this MTU (see RocePayloadPerPacket).
  uint32_t PayloadPerPacket() const;
  // Number of packets needed for a message of `len` bytes (>= 1).
  uint32_t PacketsForLength(uint64_t len) const {
    const uint32_t pmtu = PayloadPerPacket();
    if (len == 0) {
      return 1;
    }
    return static_cast<uint32_t>((len + pmtu - 1) / pmtu);
  }
};

struct RoceCounters {
  uint64_t tx_packets = 0;
  uint64_t tx_bytes = 0;  // payload bytes sent (requester data)
  uint64_t rx_packets = 0;
  uint64_t rx_payload_bytes = 0;
  uint64_t tx_acks = 0;
  uint64_t rx_acks = 0;
  uint64_t tx_naks = 0;
  uint64_t rx_naks = 0;
  uint64_t retransmitted_packets = 0;
  uint64_t timeouts = 0;
  uint64_t icrc_drops = 0;
  uint64_t malformed_drops = 0;
  uint64_t psn_out_of_order_drops = 0;
  uint64_t duplicate_psn_packets = 0;
  uint64_t unknown_qp_drops = 0;
  uint64_t rpc_dispatched = 0;
  uint64_t rpc_unmatched = 0;
  uint64_t write_messages_completed = 0;
  uint64_t read_messages_completed = 0;
  uint64_t qp_errors = 0;            // QPs transitioned to the Error state
  uint64_t qp_resets = 0;            // ResetQp calls
  uint64_t wrs_flushed = 0;          // work requests completed-in-error by a flush
  uint64_t qp_error_drops = 0;       // packets dropped because the QP is in Error
  uint64_t rx_operational_errors = 0;  // NAK(remote operational error) received
  // --- congestion control (ECN/DCQCN) --------------------------------------
  uint64_t rx_ecn_ce = 0;            // CE-marked packets received
  uint64_t tx_becn = 0;              // packets sent with the BECN echo bit
  uint64_t rx_cnp = 0;               // BECN-bearing packets received (CNPs)
  uint64_t dcqcn_rate_cuts = 0;      // multiplicative rate decreases applied
  uint64_t dcqcn_rate_increases = 0; // additive recovery steps applied
  uint64_t pacing_deferrals = 0;     // TX rounds with data held back by pacing
  // --- crash-recovery failure domain ---------------------------------------
  uint64_t crashes = 0;                    // RoceStack::Crash() invocations
  uint64_t timers_cancelled_at_crash = 0;  // timers armed at the crash instant
  uint64_t tx_stale_naks = 0;  // NAK(stale epoch) sent for pre-crash QPNs
  uint64_t rx_stale_naks = 0;  // NAK(stale epoch) received (peer restarted)
};

}  // namespace strom

#endif  // SRC_ROCE_CONFIG_H_
