// Chrome-trace (Perfetto-compatible) JSON export. Each (run, process) pair
// becomes a trace process, each tracer track becomes a named thread group,
// and spans are emitted as complete ("X") events with timestamps in
// microseconds of simulated time — open the file in ui.perfetto.dev or
// chrome://tracing to see a message's life stage by stage.
//
// Spans on one component track may overlap (e.g. pipelined DMA commands);
// the exporter assigns overlapping spans to parallel lanes (distinct tids)
// so every emitted slice stack nests properly.
#ifndef SRC_TELEMETRY_CHROME_TRACE_H_
#define SRC_TELEMETRY_CHROME_TRACE_H_

#include <string>
#include <vector>

#include "src/telemetry/trace.h"

namespace strom {

// One harvested tracer, labeled so several simulation runs (e.g. every
// payload size of a bench) can coexist in a single trace file.
struct TraceRun {
  std::string label;
  std::vector<Tracer::Track> tracks;
  std::vector<Tracer::Event> events;
};

// Serializes runs to a single Chrome-trace JSON object.
std::string ChromeTraceJson(const std::vector<TraceRun>& runs);

}  // namespace strom

#endif  // SRC_TELEMETRY_CHROME_TRACE_H_
