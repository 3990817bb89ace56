// Telemetry bundle: one per simulation (the topology owns one and attaches
// it to every component), plus a process-wide collector that harvests
// finished runs so a bench binary writes one set of files covering every
// topology it built.
#ifndef SRC_TELEMETRY_TELEMETRY_H_
#define SRC_TELEMETRY_TELEMETRY_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/sampler.h"
#include "src/telemetry/trace.h"

namespace strom {

class FlowStats;

struct Telemetry {
  MetricsRegistry metrics;
  Tracer tracer;
  TimeSeriesSampler sampler;
};

// Accumulates the telemetry of completed simulation runs: metrics, trace
// events, sampler rows and per-QP flow stats. Deposits are serialized with
// an internal mutex so the parallel sweep runner's workers can collect
// concurrently; exports order runs by the deposit `order` key (sweep-point
// ordinal), not completion order, so the output is identical whether the
// sweep ran on one thread or many.
class TelemetryCollector {
 public:
  // One deposit. A part the run did not record is empty.
  struct Run {
    std::string label;
    int64_t order = 0;
    MetricsRegistry::Snapshot metrics;
    TraceRun trace;
    std::vector<std::string> series_names;
    std::vector<TimeSeriesSampler::Row> series;
    std::string flow_rows;  // FlowStats::AppendCsv rows
  };

  // Snapshots metrics and moves trace events and sampler rows out of
  // `telemetry`; with `flows`, also takes its rows. `order` < 0 means "after
  // every explicitly-ordered run, in arrival order".
  void Collect(const std::string& label, Telemetry& telemetry, int64_t order = -1,
               const FlowStats* flows = nullptr);
  // Deposits an already-built snapshot (e.g. one bench result row).
  void Collect(const std::string& label, MetricsRegistry::Snapshot snapshot,
               int64_t order = -1);

  // Deposits in arrival order.
  const std::vector<Run>& runs() const { return runs_; }

  // Each export covers the runs that recorded its part, in `order`.
  std::string MetricsCsv() const;     // run,kind,name,value
  std::string TimeSeriesCsv() const;  // run,time_us,metric,value
  std::string FlowsCsv() const;       // flow and dcqcn rows (flow_stats.h)
  std::string TraceJson() const;      // Chrome trace (chrome_trace.h)

  // Writes metrics.csv into `dir`, and trace.json, timeseries.csv and
  // flows.csv when some run recorded their part.
  Status WriteFiles(const std::string& dir) const;

 private:
  // Appends `run`, mapping order = -1 to a key past every sweep ordinal.
  void Deposit(Run run, int64_t order);
  // The deposits, stably sorted by `order`. Caller must hold mu_.
  std::vector<const Run*> Sorted() const;

  mutable std::mutex mu_;
  int64_t next_serial_order_ = int64_t{1} << 40;
  std::vector<Run> runs_;
};

}  // namespace strom

#endif  // SRC_TELEMETRY_TELEMETRY_H_
