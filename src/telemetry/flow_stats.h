// Per-flow statistics engine: rolling per-QP RTT/goodput/retransmit/CNP
// counters plus a bounded DCQCN state timeline (rate, alpha, cut/recovery
// events), fed by lightweight hooks in the RoCE stack. One FlowStats lives
// per simulation (the topology core, src/testbed/topology.h, owns it
// alongside the Telemetry bundle on the cable and the rack alike), so
// updates are single-threaded and lock-free; a finished run deposits its
// rows in the TelemetryCollector with its metrics, under the same label and
// order key.
//
// Export: AppendCsv() writes tidy rows for the flows.csv that
// `stromtrace --flows` decodes:
//   flow,<label>,<host>,<qpn>,<metric>,<value>
//   dcqcn,<label>,<host>,<qpn>,<time_us>,<event>,<rate_gbps>,<alpha>
#ifndef SRC_TELEMETRY_FLOW_STATS_H_
#define SRC_TELEMETRY_FLOW_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace strom {

class FlowStats {
 public:
  struct QpFlow {
    uint64_t completions = 0;
    uint64_t bytes_completed = 0;  // goodput numerator
    double rtt_sum_us = 0;
    double rtt_min_us = 0;
    double rtt_max_us = 0;
    uint64_t retransmit_epochs = 0;
    uint64_t timeouts = 0;
    uint64_t ce_rx = 0;       // CE-marked packets received
    uint64_t becn_tx = 0;     // BECN echoes sent back
    uint64_t cnp_rx = 0;      // BECNs observed as the requester
    uint64_t rate_cuts = 0;
    uint64_t rate_increases = 0;
    double last_rate_gbps = 0;  // 0 until DCQCN initializes the limiter
    double min_rate_gbps = 0;
    double last_alpha = 0;
    SimTime first_t = -1;
    SimTime last_t = 0;
  };

  enum class DcqcnEventKind : uint8_t { kCnp = 0, kCut = 1, kIncrease = 2 };

  struct DcqcnEvent {
    SimTime t = 0;
    uint32_t qpn = 0;
    uint16_t host = 0;
    DcqcnEventKind kind = DcqcnEventKind::kCnp;
    double rate_gbps = 0;
    double alpha = 0;
  };

  // `timeline_capacity` bounds the DCQCN event timeline; once full, further
  // events still update the per-flow counters but are not timestamped.
  explicit FlowStats(size_t timeline_capacity = 65536)
      : timeline_capacity_(timeline_capacity) {}

  // --- hooks (called by the RoCE stack when attached) ---------------------
  void OnCompletion(SimTime now, int host, uint32_t qpn, uint64_t bytes, double rtt_us);
  void OnRetransmit(SimTime now, int host, uint32_t qpn);
  void OnTimeout(SimTime now, int host, uint32_t qpn);
  void OnCe(SimTime now, int host, uint32_t qpn);
  void OnBecnTx(SimTime now, int host, uint32_t qpn);
  void OnCnp(SimTime now, int host, uint32_t qpn, double rate_bps, double alpha);
  void OnRateChange(SimTime now, int host, uint32_t qpn, bool cut, double rate_bps,
                    double alpha);

  // --- export --------------------------------------------------------------
  void AppendCsv(const std::string& label, std::string* out) const;

  bool empty() const { return flows_.empty(); }
  size_t flow_count() const { return flows_.size(); }
  size_t timeline_size() const { return timeline_.size(); }
  uint64_t timeline_dropped() const { return timeline_dropped_; }
  // Flows keyed by (host << 32 | qpn); std::map keeps export order stable.
  const std::map<uint64_t, QpFlow>& flows() const { return flows_; }
  const std::vector<DcqcnEvent>& timeline() const { return timeline_; }

 private:
  QpFlow& Flow(SimTime now, int host, uint32_t qpn);
  void PushEvent(SimTime now, int host, uint32_t qpn, DcqcnEventKind kind, double rate_bps,
                 double alpha);

  size_t timeline_capacity_;
  uint64_t timeline_dropped_ = 0;
  std::map<uint64_t, QpFlow> flows_;
  std::vector<DcqcnEvent> timeline_;
};

}  // namespace strom

#endif  // SRC_TELEMETRY_FLOW_STATS_H_
