#include "src/telemetry/flow_stats.h"

#include <algorithm>
#include <sstream>

#include "src/sim/time.h"

namespace strom {
namespace {

uint64_t Key(int host, uint32_t qpn) {
  return uint64_t(uint32_t(host)) << 32 | uint64_t(qpn);
}

std::string FormatDouble(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

FlowStats::QpFlow& FlowStats::Flow(SimTime now, int host, uint32_t qpn) {
  QpFlow& flow = flows_[Key(host, qpn)];
  if (flow.first_t < 0) {
    flow.first_t = now;
  }
  flow.last_t = std::max(flow.last_t, now);
  return flow;
}

void FlowStats::PushEvent(SimTime now, int host, uint32_t qpn, DcqcnEventKind kind,
                          double rate_bps, double alpha) {
  if (timeline_.size() >= timeline_capacity_) {
    ++timeline_dropped_;
    return;
  }
  DcqcnEvent ev;
  ev.t = now;
  ev.qpn = qpn;
  ev.host = uint16_t(host);
  ev.kind = kind;
  ev.rate_gbps = rate_bps / 1e9;
  ev.alpha = alpha;
  timeline_.push_back(ev);
}

void FlowStats::OnCompletion(SimTime now, int host, uint32_t qpn, uint64_t bytes,
                             double rtt_us) {
  QpFlow& flow = Flow(now, host, qpn);
  ++flow.completions;
  flow.bytes_completed += bytes;
  flow.rtt_sum_us += rtt_us;
  if (flow.completions == 1 || rtt_us < flow.rtt_min_us) {
    flow.rtt_min_us = rtt_us;
  }
  flow.rtt_max_us = std::max(flow.rtt_max_us, rtt_us);
}

void FlowStats::OnRetransmit(SimTime now, int host, uint32_t qpn) {
  ++Flow(now, host, qpn).retransmit_epochs;
}

void FlowStats::OnTimeout(SimTime now, int host, uint32_t qpn) {
  ++Flow(now, host, qpn).timeouts;
}

void FlowStats::OnCe(SimTime now, int host, uint32_t qpn) { ++Flow(now, host, qpn).ce_rx; }

void FlowStats::OnBecnTx(SimTime now, int host, uint32_t qpn) {
  ++Flow(now, host, qpn).becn_tx;
}

void FlowStats::OnCnp(SimTime now, int host, uint32_t qpn, double rate_bps, double alpha) {
  QpFlow& flow = Flow(now, host, qpn);
  ++flow.cnp_rx;
  flow.last_alpha = alpha;
  PushEvent(now, host, qpn, DcqcnEventKind::kCnp, rate_bps, alpha);
}

void FlowStats::OnRateChange(SimTime now, int host, uint32_t qpn, bool cut, double rate_bps,
                             double alpha) {
  QpFlow& flow = Flow(now, host, qpn);
  if (cut) {
    ++flow.rate_cuts;
  } else {
    ++flow.rate_increases;
  }
  flow.last_rate_gbps = rate_bps / 1e9;
  flow.last_alpha = alpha;
  if (flow.min_rate_gbps == 0 || flow.last_rate_gbps < flow.min_rate_gbps) {
    flow.min_rate_gbps = flow.last_rate_gbps;
  }
  PushEvent(now, host, qpn, cut ? DcqcnEventKind::kCut : DcqcnEventKind::kIncrease, rate_bps,
            alpha);
}

void FlowStats::AppendCsv(const std::string& label, std::string* out) const {
  for (const auto& [key, flow] : flows_) {
    const int host = int(key >> 32);
    const uint32_t qpn = uint32_t(key & 0xFFFFFFFFu);
    const std::string row_prefix =
        "flow," + label + "," + std::to_string(host) + "," + std::to_string(qpn) + ",";
    const auto emit = [&](const char* metric, double value) {
      out->append(row_prefix);
      out->append(metric);
      out->push_back(',');
      out->append(FormatDouble(value));
      out->push_back('\n');
    };
    const double span_sec =
        flow.last_t > flow.first_t && flow.first_t >= 0 ? ToSec(flow.last_t - flow.first_t) : 0;
    emit("completions", double(flow.completions));
    emit("bytes_completed", double(flow.bytes_completed));
    emit("goodput_gbps", span_sec > 0 ? flow.bytes_completed * 8.0 / span_sec / 1e9 : 0);
    emit("rtt_avg_us", flow.completions > 0 ? flow.rtt_sum_us / double(flow.completions) : 0);
    emit("rtt_min_us", flow.rtt_min_us);
    emit("rtt_max_us", flow.rtt_max_us);
    emit("retransmit_epochs", double(flow.retransmit_epochs));
    emit("timeouts", double(flow.timeouts));
    emit("ce_rx", double(flow.ce_rx));
    emit("becn_tx", double(flow.becn_tx));
    emit("cnp_rx", double(flow.cnp_rx));
    emit("rate_cuts", double(flow.rate_cuts));
    emit("rate_increases", double(flow.rate_increases));
    emit("last_rate_gbps", flow.last_rate_gbps);
    emit("min_rate_gbps", flow.min_rate_gbps);
    emit("last_alpha", flow.last_alpha);
  }
  for (const DcqcnEvent& ev : timeline_) {
    const char* kind = ev.kind == DcqcnEventKind::kCnp
                           ? "cnp"
                           : ev.kind == DcqcnEventKind::kCut ? "cut" : "increase";
    out->append("dcqcn," + label + "," + std::to_string(ev.host) + "," +
                std::to_string(ev.qpn) + "," + FormatDouble(ToUs(ev.t)) + "," + kind + "," +
                FormatDouble(ev.rate_gbps) + "," + FormatDouble(ev.alpha) + "\n");
  }
}

}  // namespace strom
