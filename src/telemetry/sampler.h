// Time-series sampler: components register probe callbacks (queue depths,
// occupancy, utilization) at telemetry-attach time; a periodic event on the
// simulator's queue (scheduled by the topology) evaluates every probe and
// appends one row. Rows export as tidy CSV (label,time_us,metric,value) so
// the crossover plots in EXPERIMENTS.md can be explained by queue dynamics.
//
// Probes receive the current simulated time so they can compute rates
// (e.g. link utilization from a byte-counter delta) and backlogs
// (busy_until - now). When sampling is off, Sample() is never called and
// registered probes cost nothing.
#ifndef SRC_TELEMETRY_SAMPLER_H_
#define SRC_TELEMETRY_SAMPLER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace strom {

class TimeSeriesSampler {
 public:
  using ProbeFn = std::function<double(SimTime now)>;

  struct Row {
    SimTime t = 0;
    std::vector<double> values;  // aligned with names()
  };

  // Registers a probe; names must be unique. All probes must be registered
  // before the first Sample() call so rows stay rectangular.
  void AddProbe(const std::string& name, ProbeFn fn);

  // Evaluates every probe and appends one row.
  void Sample(SimTime now);

  const std::vector<std::string>& names() const { return names_; }
  const std::vector<Row>& rows() const { return rows_; }
  size_t probe_count() const { return probes_.size(); }
  bool empty() const { return rows_.empty(); }

  // Drops collected rows (probes stay registered).
  void ClearRows() { rows_.clear(); }

 private:
  std::vector<std::string> names_;
  std::vector<ProbeFn> probes_;
  std::vector<Row> rows_;
};

// Appends the sampler rows of one labeled run to `out` in tidy CSV
// ("label,time_us,metric,value" per line; no header).
void TimeSeriesToCsv(const std::string& label, const std::vector<std::string>& names,
                     const std::vector<TimeSeriesSampler::Row>& rows, std::string* out);

}  // namespace strom

#endif  // SRC_TELEMETRY_SAMPLER_H_
