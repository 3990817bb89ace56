#include "src/telemetry/metrics.h"

#include <algorithm>
#include <cstdio>

#include "src/common/logging.h"

namespace strom {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    STROM_CHECK_LT(bounds_[i - 1], bounds_[i]) << "histogram bounds must be increasing";
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) {
    ++i;
  }
  ++counts_[i];
  ++count_;
  sum_ += value;
}

void MetricsRegistry::CheckFresh(const std::string& name) const {
  for (const auto& [n, c] : counters_) {
    STROM_CHECK_NE(n, name) << "duplicate metric name";
  }
  for (const auto& [n, g] : gauges_) {
    STROM_CHECK_NE(n, name) << "duplicate metric name";
  }
  for (const auto& [n, h] : histograms_) {
    STROM_CHECK_NE(n, name) << "duplicate metric name";
  }
}

Counter* MetricsRegistry::AddCounter(const std::string& name) {
  CheckFresh(name);
  counters_.emplace_back(name, Counter{});
  return &counters_.back().second;
}

void MetricsRegistry::AddGauge(const std::string& name, GaugeFn fn) {
  CheckFresh(name);
  STROM_CHECK(fn != nullptr);
  gauges_.emplace_back(name, std::move(fn));
}

void MetricsRegistry::LatchGauges(const std::string& prefix) {
  for (auto& [name, fn] : gauges_) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      const double value = fn();
      fn = [value] { return value; };
    }
  }
}

Histogram* MetricsRegistry::AddHistogram(const std::string& name, std::vector<double> bounds) {
  CheckFresh(name);
  histograms_.emplace_back(name, Histogram(std::move(bounds)));
  return &histograms_.back().second;
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  Snapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter.value());
  }
  for (const auto& [name, fn] : gauges_) {
    snap.gauges.emplace_back(name, fn());
  }
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    h.bounds = hist.bounds();
    h.counts = hist.counts();
    h.count = hist.count();
    h.sum = hist.sum();
    snap.histograms.push_back(std::move(h));
  }
  std::sort(snap.counters.begin(), snap.counters.end());
  std::sort(snap.gauges.begin(), snap.gauges.end());
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) { return a.name < b.name; });
  return snap;
}

namespace {

void AppendDouble(double v, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

}  // namespace

void MetricsSnapshotToCsv(const std::string& label, const MetricsRegistry::Snapshot& snap,
                          std::string* out) {
  for (const auto& [name, value] : snap.counters) {
    *out += label + ",counter," + name + "," + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    *out += label + ",gauge," + name + ",";
    AppendDouble(value, out);
    *out += "\n";
  }
  for (const MetricsRegistry::HistogramSnapshot& h : snap.histograms) {
    for (size_t i = 0; i < h.counts.size(); ++i) {
      char bound[64];
      if (i < h.bounds.size()) {
        std::snprintf(bound, sizeof(bound), "le=%.9g", h.bounds[i]);
      } else {
        std::snprintf(bound, sizeof(bound), "le=+inf");
      }
      *out += label + ",histogram," + h.name + "[" + bound + "]," + std::to_string(h.counts[i]) +
              "\n";
    }
    *out += label + ",histogram," + h.name + "[count]," + std::to_string(h.count) + "\n";
    *out += label + ",histogram," + h.name + "[sum],";
    AppendDouble(h.sum, out);
    *out += "\n";
  }
}

}  // namespace strom
