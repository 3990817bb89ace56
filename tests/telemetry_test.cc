// Unit tests for the telemetry subsystem: metrics registry semantics,
// histogram bucket boundaries, the metrics CSV, span recording (nesting,
// monotonicity, sampling, disabled == zero events), the Chrome-trace
// exporter validated with a minimal JSON parser (parse + round-trip the
// counts back out), and the collector's one file writer.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"

namespace strom {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser — enough to validate exporter output structurally.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    EXPECT_NE(it, object.end()) << "missing key: " << key;
    static const JsonValue kEmpty;
    return it == object.end() ? kEmpty : it->second;
  }
  bool has(const std::string& key) const { return object.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= s_.size()) {
      return false;
    }
    const char c = s_[pos_];
    if (c == '{') {
      return ParseObject(out);
    }
    if (c == '[') {
      return ParseArray(out);
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::kBool;
      pos_ += 5;
      return true;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }
  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::kObject;
    if (!Consume('{')) {
      return false;
    }
    if (Consume('}')) {
      return true;
    }
    do {
      SkipWs();
      std::string key;
      if (!ParseString(&key) || !Consume(':')) {
        return false;
      }
      JsonValue v;
      if (!ParseValue(&v)) {
        return false;
      }
      out->object.emplace(std::move(key), std::move(v));
    } while (Consume(','));
    return Consume('}');
  }
  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::kArray;
    if (!Consume('[')) {
      return false;
    }
    if (Consume(']')) {
      return true;
    }
    do {
      JsonValue v;
      if (!ParseValue(&v)) {
        return false;
      }
      out->array.push_back(std::move(v));
    } while (Consume(','));
    return Consume(']');
  }
  bool ParseString(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return false;
    }
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
      }
      out->push_back(s_[pos_++]);
    }
    if (pos_ >= s_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }
  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out->kind = JsonValue::kNumber;
    out->number = std::stod(s_.substr(start, pos_ - start));
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

JsonValue ParseJsonOrDie(const std::string& text) {
  JsonValue v;
  JsonParser p(text);
  EXPECT_TRUE(p.Parse(&v)) << "unparseable JSON:\n" << text;
  return v;
}

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST(Metrics, CounterIncrementsOnStableAddress) {
  MetricsRegistry reg;
  Counter* c = reg.AddCounter("roce.tx_packets");
  EXPECT_EQ(c->value(), 0u);
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->value(), 42u);

  const auto snap = reg.Snap();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "roce.tx_packets");
  EXPECT_EQ(snap.counters[0].second, 42u);
}

TEST(Metrics, GaugeIsPulledAtSnapshotTime) {
  MetricsRegistry reg;
  uint64_t backing = 7;
  reg.AddGauge("engine.rpcs", [&backing] { return static_cast<double>(backing); });

  EXPECT_DOUBLE_EQ(reg.Snap().gauges[0].second, 7.0);
  backing = 1000;  // the registry holds a callback, not a copy
  EXPECT_DOUBLE_EQ(reg.Snap().gauges[0].second, 1000.0);
}

TEST(Metrics, SnapshotIsSortedByName) {
  MetricsRegistry reg;
  reg.AddCounter("zebra");
  reg.AddCounter("alpha");
  reg.AddCounter("mango");
  const auto snap = reg.Snap();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "mango");
  EXPECT_EQ(snap.counters[2].first, "zebra");
}

TEST(Metrics, HistogramBucketBoundsAreInclusiveUpper) {
  MetricsRegistry reg;
  Histogram* h = reg.AddHistogram("latency_us", {1.0, 10.0});
  ASSERT_EQ(h->counts().size(), 3u);  // two bounds + implicit +inf

  h->Observe(0.5);   // <= 1        -> bucket 0
  h->Observe(1.0);   // == bound    -> bucket 0 (inclusive)
  h->Observe(1.001);                // -> bucket 1
  h->Observe(10.0);  // == bound    -> bucket 1
  h->Observe(99.0);                 // -> +inf bucket

  EXPECT_EQ(h->counts()[0], 2u);
  EXPECT_EQ(h->counts()[1], 2u);
  EXPECT_EQ(h->counts()[2], 1u);
  EXPECT_EQ(h->count(), 5u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.5 + 1.0 + 1.001 + 10.0 + 99.0);
}

TEST(Metrics, CsvExportKeepsHistogramCountAndSum) {
  MetricsRegistry reg;
  Histogram* lat = reg.AddHistogram("lat", {1.0, 2.0});
  lat->Observe(1.5);
  lat->Observe(0.25);
  lat->Observe(7.0);

  std::string out;
  MetricsSnapshotToCsv("runX", reg.Snap(), &out);
  EXPECT_EQ(out,
            "runX,histogram,lat[le=1],1\n"
            "runX,histogram,lat[le=2],1\n"
            "runX,histogram,lat[le=+inf],1\n"
            "runX,histogram,lat[count],3\n"
            "runX,histogram,lat[sum],8.75\n");
}

TEST(Metrics, CsvExportHasOneRowPerMetric) {
  MetricsRegistry reg;
  reg.AddCounter("pkts")->Inc(9);
  reg.AddGauge("load", [] { return 2.25; });

  std::string out = "run,kind,name,value\n";
  MetricsSnapshotToCsv("runX", reg.Snap(), &out);
  EXPECT_NE(out.find("runX,counter,pkts,9"), std::string::npos) << out;
  EXPECT_NE(out.find("runX,gauge,load,2.25"), std::string::npos) << out;
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer tracer;  // never enabled
  const TrackId track = tracer.RegisterTrack("node0", "nic");
  for (int i = 0; i < 100; ++i) {
    const TraceContext ctx = tracer.StartTrace();
    EXPECT_FALSE(ctx.sampled());
    tracer.Span(ctx, track, "tx", 0, 100);
  }
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Trace, SamplingTracesOneInN) {
  Tracer tracer;
  tracer.Enable(/*sample_every=*/4);
  const TrackId track = tracer.RegisterTrack("node0", "nic");
  int sampled = 0;
  for (int i = 0; i < 12; ++i) {
    const TraceContext ctx = tracer.StartTrace();
    sampled += ctx.sampled() ? 1 : 0;
    tracer.Span(ctx, track, "tx", i, i + 1);
  }
  EXPECT_EQ(sampled, 3);
  EXPECT_EQ(tracer.events().size(), 3u);
}

TEST(Trace, NestedSpansShareTraceIdAndStayMonotonic) {
  Tracer tracer;
  tracer.Enable();
  const TrackId host = tracer.RegisterTrack("node0", "host");
  const TrackId dma = tracer.RegisterTrack("node0", "dma");
  const TraceContext ctx = tracer.StartTrace();
  ASSERT_TRUE(ctx.sampled());

  tracer.Span(ctx, host, "cmd", 100, 900);  // outer
  tracer.Span(ctx, dma, "fetch", 200, 400);  // nested inside cmd
  tracer.Span(ctx, dma, "fetch", 400, 600);  // back-to-back

  ASSERT_EQ(tracer.events().size(), 3u);
  for (const Tracer::Event& e : tracer.events()) {
    EXPECT_EQ(e.trace_id, ctx.id);
    EXPECT_GE(e.end, e.begin);
  }
  // The nested spans fall inside the outer span's window.
  const auto& events = tracer.events();
  EXPECT_LE(events[0].begin, events[1].begin);
  EXPECT_GE(events[0].end, events[2].end);
}

TEST(Trace, NullContextAndUnregisteredTrackAreNoOps) {
  Tracer tracer;
  tracer.Enable();
  const TrackId track = tracer.RegisterTrack("node0", "nic");
  tracer.Span(TraceContext{}, track, "tx", 0, 1);            // null ctx
  tracer.Span(tracer.StartTrace(), kInvalidTrack, "tx", 0, 1);  // no track
  EXPECT_TRUE(tracer.events().empty());
}

// ---------------------------------------------------------------------------
// Chrome-trace exporter.
// ---------------------------------------------------------------------------

TEST(ChromeTrace, ExportParsesAndRoundTripsEventCounts) {
  Tracer tracer;
  tracer.Enable();
  const TrackId nic = tracer.RegisterTrack("node0", "nic");
  const TrackId wire = tracer.RegisterTrack("network", "wire");
  const TraceContext ctx = tracer.StartTrace();
  tracer.Span(ctx, nic, "tx", 1'000'000, 3'000'000);  // 1 us .. 3 us
  tracer.Span(ctx, wire, "wire", 3'000'000, 5'000'000);

  TraceRun run;
  run.label = "run0";
  run.tracks = tracer.tracks();
  run.events = tracer.events();

  const JsonValue root = ParseJsonOrDie(ChromeTraceJson({run}));
  const auto& evs = root.at("traceEvents").array;

  int slices = 0;
  int metadata = 0;
  for (const JsonValue& e : evs) {
    const std::string& ph = e.at("ph").str;
    if (ph == "X") {
      ++slices;
      EXPECT_TRUE(e.has("pid"));
      EXPECT_TRUE(e.has("tid"));
      EXPECT_GE(e.at("dur").number, 0.0);
    } else {
      ASSERT_EQ(ph, "M");
      ++metadata;
    }
  }
  EXPECT_EQ(slices, 2);  // round trip: every recorded span became a slice
  EXPECT_GT(metadata, 0);

  // Timestamps come out in microseconds of simulated time.
  for (const JsonValue& e : evs) {
    if (e.at("ph").str == "X" && e.at("name").str == "tx") {
      EXPECT_DOUBLE_EQ(e.at("ts").number, 1.0);
      EXPECT_DOUBLE_EQ(e.at("dur").number, 2.0);
    }
  }
}

TEST(ChromeTrace, OverlappingSpansGetDistinctLanes) {
  Tracer tracer;
  tracer.Enable();
  const TrackId dma = tracer.RegisterTrack("node0", "dma");
  const TraceContext a = tracer.StartTrace();
  const TraceContext b = tracer.StartTrace();
  tracer.Span(a, dma, "read", 0, 10'000'000);
  tracer.Span(b, dma, "read", 5'000'000, 15'000'000);  // overlaps the first

  TraceRun run;
  run.label = "run0";
  run.tracks = tracer.tracks();
  run.events = tracer.events();

  const JsonValue root = ParseJsonOrDie(ChromeTraceJson({run}));
  std::vector<double> tids;
  for (const JsonValue& e : root.at("traceEvents").array) {
    if (e.at("ph").str == "X") {
      tids.push_back(e.at("tid").number);
    }
  }
  ASSERT_EQ(tids.size(), 2u);
  EXPECT_NE(tids[0], tids[1]);
}

// ---------------------------------------------------------------------------
// Collector.
// ---------------------------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

TEST(Collector, HarvestsMetricsAndMovesTraceEventsOut) {
  Telemetry telemetry;
  telemetry.metrics.AddCounter("pkts")->Inc(5);
  telemetry.tracer.Enable();
  const TrackId t = telemetry.tracer.RegisterTrack("node0", "nic");
  telemetry.tracer.Span(telemetry.tracer.StartTrace(), t, "tx", 0, 1000);

  TelemetryCollector collector;
  collector.Collect("runA", telemetry);

  ASSERT_EQ(collector.runs().size(), 1u);
  EXPECT_EQ(collector.runs()[0].trace.label, "runA");
  EXPECT_EQ(collector.runs()[0].trace.events.size(), 1u);
  EXPECT_TRUE(telemetry.tracer.events().empty());  // moved out

  EXPECT_EQ(collector.MetricsCsv(), "run,kind,name,value\nrunA,counter,pkts,5\n");
  const JsonValue root = ParseJsonOrDie(collector.TraceJson());
  EXPECT_FALSE(root.at("traceEvents").array.empty());
}

// Runs deposited out of order export in `order`, in every file, and a part
// no run recorded writes no file.
TEST(Collector, WritesEachPartInDepositOrder) {
  TelemetryCollector collector;
  for (const int64_t order : {1, 0}) {
    Telemetry telemetry;
    telemetry.metrics.AddCounter("pkts")->Inc(uint64_t(order));
    telemetry.sampler.AddProbe("x", [order](SimTime) { return double(order); });
    telemetry.sampler.Sample(Us(1));
    collector.Collect("run" + std::to_string(order), telemetry, order);
  }
  collector.Collect("row", MetricsRegistry::Snapshot{});

  const std::string dir = ::testing::TempDir() + "/collector_files";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(collector.WriteFiles(dir).ok());
  EXPECT_EQ(ReadFile(dir + "/metrics.csv"),
            "run,kind,name,value\nrun0,counter,pkts,0\nrun1,counter,pkts,1\n");
  EXPECT_EQ(ReadFile(dir + "/timeseries.csv"),
            "run,time_us,metric,value\nrun0,1.000,x,0\nrun1,1.000,x,1\n");
  EXPECT_FALSE(std::filesystem::exists(dir + "/trace.json"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/flows.csv"));
  EXPECT_FALSE(collector.WriteFiles(dir + "/missing").ok());
}

}  // namespace
}  // namespace strom
