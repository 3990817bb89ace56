// Latency sample accumulation with the percentiles the paper reports
// (median with 1st/99th-percentile whiskers).
#ifndef SRC_TESTBED_STATS_H_
#define SRC_TESTBED_STATS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/logging.h"
#include "src/sim/time.h"

namespace strom {

class LatencyStats {
 public:
  void Add(SimTime sample) {
    samples_.push_back(sample);
    sorted_valid_ = false;
  }
  // Folds another accumulator's samples into this one. Percentiles sort, so
  // the result is independent of merge order — per-shard stats (e.g. the
  // YCSB engine's per-host shards) fold into identical aggregates.
  void Merge(const LatencyStats& other) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sorted_valid_ = false;
  }
  size_t count() const { return samples_.size(); }

  SimTime Percentile(double p) const {
    STROM_CHECK(!samples_.empty());
    // Sort once, reuse across the median/p1/p99 calls every bench row makes;
    // Add() invalidates the cache.
    if (!sorted_valid_) {
      sorted_ = samples_;
      std::sort(sorted_.begin(), sorted_.end());
      sorted_valid_ = true;
    }
    const double rank = p / 100.0 * (static_cast<double>(sorted_.size()) - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return static_cast<SimTime>(static_cast<double>(sorted_[lo]) * (1 - frac) +
                                static_cast<double>(sorted_[hi]) * frac);
  }

  SimTime Median() const { return Percentile(50); }
  SimTime P1() const { return Percentile(1); }
  SimTime P99() const { return Percentile(99); }

  double MeanUs() const {
    STROM_CHECK(!samples_.empty());
    double sum = 0;
    for (SimTime s : samples_) {
      sum += ToUs(s);
    }
    return sum / static_cast<double>(samples_.size());
  }

 private:
  std::vector<SimTime> samples_;
  mutable std::vector<SimTime> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace strom

#endif  // SRC_TESTBED_STATS_H_
