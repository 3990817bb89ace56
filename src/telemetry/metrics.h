// Metrics registry: named counters, gauges and fixed-bucket histograms that
// components register once and update with near-zero overhead.
//
//   * Counter    — owned uint64, Inc() is a single add on a stable address.
//   * Gauge      — pull-based: a callback evaluated only at snapshot time.
//                  Existing counter structs (RoceCounters, DmaCounters, ...)
//                  are re-exported this way without touching their hot paths.
//   * Histogram  — fixed upper-bound buckets (+inf implicit), Observe() is a
//                  linear scan over a handful of bounds plus two adds.
//
// Snapshots serialize to CSV at end of run.
#ifndef SRC_TELEMETRY_METRICS_H_
#define SRC_TELEMETRY_METRICS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace strom {

class Counter {
 public:
  void Inc(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Histogram {
 public:
  // `bounds` are inclusive upper bucket bounds, strictly increasing; an
  // overflow bucket (+inf) is appended automatically.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  // counts().size() == bounds().size() + 1 (last bucket is +inf).
  const std::vector<uint64_t>& counts() const { return counts_; }
  uint64_t count() const { return count_; }
  double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0;
};

class MetricsRegistry {
 public:
  using GaugeFn = std::function<double()>;

  // Names must be unique across all metric kinds; registration CHECK-fails
  // on duplicates. Returned pointers are stable for the registry's lifetime.
  Counter* AddCounter(const std::string& name);
  void AddGauge(const std::string& name, GaugeFn fn);
  Histogram* AddHistogram(const std::string& name, std::vector<double> bounds);

  // Replaces every gauge whose name starts with `prefix` by its value at the
  // time of the call. Components with a shorter lifetime than the registry
  // (e.g. a workload engine torn down before the end-of-run snapshot) latch
  // their final readings on destruction so Snap() never chases freed state.
  void LatchGauges(const std::string& prefix);

  struct HistogramSnapshot {
    std::string name;
    std::vector<double> bounds;
    std::vector<uint64_t> counts;
    uint64_t count = 0;
    double sum = 0;
  };
  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramSnapshot> histograms;
  };

  // Evaluates gauges and copies current values. Sorted by name.
  Snapshot Snap() const;

  size_t size() const { return counters_.size() + gauges_.size() + histograms_.size(); }

 private:
  void CheckFresh(const std::string& name) const;

  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, GaugeFn>> gauges_;
  std::deque<std::pair<std::string, Histogram>> histograms_;
};

// Appends one labeled snapshot as "label,kind,name,value" rows (see
// telemetry.h for the multi-run collector that feeds this). A histogram
// writes one row per bucket ("name[le=<bound>]", the last "le=+inf"), then
// "name[count]" and "name[sum]".
void MetricsSnapshotToCsv(const std::string& label, const MetricsRegistry::Snapshot& snap,
                          std::string* out);

}  // namespace strom

#endif  // SRC_TELEMETRY_METRICS_H_
