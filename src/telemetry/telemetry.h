// Telemetry bundle: one per simulation (the topology owns one and attaches
// it to every component), plus a process-wide collector that harvests
// finished runs so bench binaries can export a single trace/metrics file
// covering every topology they built.
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

struct Telemetry {
  MetricsRegistry metrics;
  Tracer tracer;
  TimeSeriesSampler sampler;
};

// Accumulates the telemetry of completed simulation runs. Deposits are
// serialized with an internal mutex so the parallel sweep runner's workers
// can collect concurrently; exports order runs by the deposit `order` key
// (sweep-point ordinal), not completion order, so the output is identical
// whether the sweep ran on one thread or many.
class TelemetryCollector {
 public:
  // Snapshots metrics and moves trace events out of `telemetry`. `order` < 0
  // means "after every explicitly-ordered run, in arrival order".
  void Collect(const std::string& label, Telemetry& telemetry, int64_t order = -1);
  // Deposits an already-built snapshot (e.g. one bench result row).
  void Collect(const std::string& label, MetricsRegistry::Snapshot snapshot,
               int64_t order = -1);

  // One run's worth of periodic sampler rows (queue depths, occupancy...).
  struct TimeSeriesRun {
    std::string label;
    std::vector<std::string> names;
    std::vector<TimeSeriesSampler::Row> rows;
  };

  bool empty() const { return runs_.empty(); }
  size_t run_count() const { return runs_.size(); }
  const std::vector<TraceRun>& trace_runs() const { return trace_runs_; }
  const std::vector<TimeSeriesRun>& timeseries_runs() const { return timeseries_runs_; }

  Status WriteChromeTrace(const std::string& path) const;
  Status WriteMetrics(const std::string& path) const;  // .csv suffix -> CSV, else JSON
  Status WriteTimeSeries(const std::string& path) const;

  std::string MetricsJson() const;
  std::string MetricsCsv() const;
  std::string TimeSeriesCsv() const;  // long format: label,time_us,metric,value

 private:
  struct Run {
    std::string label;
    MetricsRegistry::Snapshot metrics;
    int64_t order = 0;
  };
  // Maps order = -1 to a monotonically increasing key past every sweep
  // ordinal. Caller must hold mu_.
  int64_t ResolveOrder(int64_t order);

  mutable std::mutex mu_;
  int64_t next_serial_order_ = int64_t{1} << 40;
  std::vector<Run> runs_;
  std::vector<TraceRun> trace_runs_;
  std::vector<int64_t> trace_orders_;  // parallel to trace_runs_
  std::vector<TimeSeriesRun> timeseries_runs_;
  std::vector<int64_t> timeseries_orders_;  // parallel to timeseries_runs_
};

}  // namespace strom

#endif  // SRC_TELEMETRY_TELEMETRY_H_
