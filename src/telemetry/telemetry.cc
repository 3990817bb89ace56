#include "src/telemetry/telemetry.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "src/telemetry/flow_stats.h"

namespace strom {

void TelemetryCollector::Collect(const std::string& label, Telemetry& telemetry,
                                 int64_t order, const FlowStats* flows) {
  Run run;
  run.label = label;
  run.metrics = telemetry.metrics.Snap();
  if (!telemetry.tracer.events().empty()) {
    run.trace.label = label;
    run.trace.tracks = telemetry.tracer.tracks();
    run.trace.events = telemetry.tracer.events();
    telemetry.tracer.Clear();
  }
  if (!telemetry.sampler.empty()) {
    run.series_names = telemetry.sampler.names();
    run.series = telemetry.sampler.rows();
    telemetry.sampler.ClearRows();
  }
  if (flows != nullptr) {
    flows->AppendCsv(label, &run.flow_rows);
  }
  Deposit(std::move(run), order);
}

void TelemetryCollector::Collect(const std::string& label,
                                 MetricsRegistry::Snapshot snapshot, int64_t order) {
  Run run;
  run.label = label;
  run.metrics = std::move(snapshot);
  Deposit(std::move(run), order);
}

void TelemetryCollector::Deposit(Run run, int64_t order) {
  std::lock_guard<std::mutex> lock(mu_);
  run.order = order >= 0 ? order : next_serial_order_++;
  runs_.push_back(std::move(run));
}

std::vector<const TelemetryCollector::Run*> TelemetryCollector::Sorted() const {
  std::vector<const Run*> sorted;
  sorted.reserve(runs_.size());
  for (const Run& run : runs_) {
    sorted.push_back(&run);
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Run* a, const Run* b) { return a->order < b->order; });
  return sorted;
}

std::string TelemetryCollector::MetricsCsv() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "run,kind,name,value\n";
  for (const Run* run : Sorted()) {
    MetricsSnapshotToCsv(run->label, run->metrics, &out);
  }
  return out;
}

std::string TelemetryCollector::TimeSeriesCsv() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "run,time_us,metric,value\n";
  for (const Run* run : Sorted()) {
    TimeSeriesToCsv(run->label, run->series_names, run->series, &out);
  }
  return out;
}

std::string TelemetryCollector::FlowsCsv() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "kind,label,host,qpn,fields...\n";
  for (const Run* run : Sorted()) {
    out += run->flow_rows;
  }
  return out;
}

std::string TelemetryCollector::TraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceRun> traced;
  for (const Run* run : Sorted()) {
    if (!run->trace.events.empty()) {
      traced.push_back(run->trace);
    }
  }
  return ChromeTraceJson(traced);
}

Status TelemetryCollector::WriteFiles(const std::string& dir) const {
  bool traced = false;
  bool sampled = false;
  bool flows = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Run& run : runs_) {
      traced |= !run.trace.events.empty();
      sampled |= !run.series.empty();
      flows |= !run.flow_rows.empty();
    }
  }
  std::vector<std::pair<const char*, std::string>> files = {{"metrics.csv", MetricsCsv()}};
  if (traced) {
    files.emplace_back("trace.json", TraceJson());
  }
  if (sampled) {
    files.emplace_back("timeseries.csv", TimeSeriesCsv());
  }
  if (flows) {
    files.emplace_back("flows.csv", FlowsCsv());
  }
  for (const auto& [name, contents] : files) {
    const std::string path = dir + "/" + name;
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(contents.data(), std::streamsize(contents.size()));
    f.close();
    if (!f) {
      return UnavailableError("cannot write " + path);
    }
  }
  return Status::Ok();
}

}  // namespace strom
