#include "span_fold.h"

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

// -1 for tracks that belong to no stage (they are left out of the fold).
int StageOfTrack(std::string_view name) {
  if (name == "verbs") return kVerbs;
  if (name == "nic.msg") return kNicMsg;
  if (name == "host") return kDoorbell;
  if (name == "kernel") return kKernel;
  if (name == "nic.tx") return kNicTx;
  if (name == "nic.rx") return kNicRx;
  if (name.substr(0, 4) == "wire") return kWire;
  if (name == "dma") return kDma;
  return -1;
}

struct Edge {
  strom::SimTime at;
  int stage;
  int delta;  // +1 span opens, -1 span closes
};

void FoldTrace(std::vector<Edge>& edges, StageTimes& out) {
  if (edges.empty()) {
    return;
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.at < b.at; });
  std::array<int, kNumStages> open{};
  strom::SimTime prev = edges.front().at;
  for (size_t i = 0; i < edges.size();) {
    const strom::SimTime at = edges[i].at;
    int top = kUncovered;
    for (int s = kDma; s >= kVerbs; --s) {
      if (open[s] > 0) {
        top = s;
        break;
      }
    }
    out.self[top] += at - prev;
    for (; i < edges.size() && edges[i].at == at; ++i) {
      open[edges[i].stage] += edges[i].delta;
    }
    prev = at;
  }
  out.extent += edges.back().at - edges.front().at;
  ++out.traces;
}

}  // namespace

StageTimes FoldSpans(const strom::Tracer& tracer) {
  std::vector<int> stage_of;
  for (const strom::Tracer::Track& t : tracer.tracks()) {
    stage_of.push_back(StageOfTrack(t.name));
  }
  std::vector<std::pair<uint64_t, size_t>> by_trace;  // (trace id, event index)
  const auto& events = tracer.events();
  for (size_t i = 0; i < events.size(); ++i) {
    const strom::Tracer::Event& e = events[i];
    if (e.end > e.begin && e.track >= 0 && stage_of[e.track] >= 0) {
      by_trace.emplace_back(e.trace_id, i);
    }
  }
  std::sort(by_trace.begin(), by_trace.end());

  StageTimes out;
  std::vector<Edge> edges;
  for (size_t i = 0; i < by_trace.size(); ++i) {
    const strom::Tracer::Event& e = events[by_trace[i].second];
    edges.push_back({e.begin, stage_of[e.track], +1});
    edges.push_back({e.end, stage_of[e.track], -1});
    if (i + 1 == by_trace.size() || by_trace[i + 1].first != by_trace[i].first) {
      FoldTrace(edges, out);
      edges.clear();
    }
  }
  return out;
}

}  // namespace perfbench
