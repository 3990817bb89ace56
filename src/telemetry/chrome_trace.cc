#include "src/telemetry/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "src/common/logging.h"

namespace strom {

namespace {

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// Simulated picoseconds -> trace microseconds (1 ps = 1e-6 us, exact in the
// 6 fractional digits printed).
void AppendTimestampUs(SimTime ps, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lld.%06lld", static_cast<long long>(ps / 1'000'000),
                static_cast<long long>(ps % 1'000'000));
  *out += buf;
}

void AppendMeta(int pid, int tid, const char* kind, const std::string& value, bool sort_index,
                std::string* out) {
  *out += "  {\"ph\":\"M\",\"pid\":" + std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
          ",\"name\":\"" + kind + "\",\"args\":{";
  if (sort_index) {
    *out += "\"sort_index\":" + value;
  } else {
    *out += "\"name\":";
    AppendJsonString(value, out);
  }
  *out += "}},\n";
}

// Greedy lane assignment: spans on one lane must either follow each other or
// nest fully, which is what the Chrome JSON importer requires of one tid.
struct Lane {
  std::vector<SimTime> open_ends;  // stack of enclosing span end times

  bool Accepts(SimTime begin, SimTime end) {
    while (!open_ends.empty() && open_ends.back() <= begin) {
      open_ends.pop_back();
    }
    return open_ends.empty() || end <= open_ends.back();
  }
};

constexpr int kMaxLanesPerTrack = 32;

}  // namespace

std::string ChromeTraceJson(const std::vector<TraceRun>& runs) {
  std::string out = "{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n";
  int next_pid = 1;
  for (const TraceRun& run : runs) {
    // One trace process per (run, tracer process); processes keep their
    // registration order via the sort index.
    std::map<std::string, int> pid_by_process;
    for (const Tracer::Track& t : run.tracks) {
      if (pid_by_process.count(t.process) == 0) {
        const int pid = next_pid++;
        pid_by_process[t.process] = pid;
        std::string pname = run.label.empty() ? t.process : run.label + "/" + t.process;
        AppendMeta(pid, 0, "process_name", pname, /*sort_index=*/false, &out);
        AppendMeta(pid, 0, "process_sort_index", std::to_string(pid), /*sort_index=*/true, &out);
      }
    }

    // Bucket events by track, keep deterministic time order.
    std::vector<std::vector<const Tracer::Event*>> by_track(run.tracks.size());
    for (const Tracer::Event& e : run.events) {
      STROM_CHECK_LT(static_cast<size_t>(e.track), run.tracks.size());
      by_track[e.track].push_back(&e);
    }

    for (size_t track = 0; track < run.tracks.size(); ++track) {
      std::vector<const Tracer::Event*>& events = by_track[track];
      if (events.empty()) {
        continue;
      }
      std::stable_sort(events.begin(), events.end(),
                       [](const Tracer::Event* a, const Tracer::Event* b) {
                         if (a->begin != b->begin) {
                           return a->begin < b->begin;
                         }
                         return a->end > b->end;  // enclosing span first
                       });
      const int pid = pid_by_process.at(run.tracks[track].process);
      const int tid_base = static_cast<int>(track) * kMaxLanesPerTrack;
      std::vector<Lane> lanes;
      std::vector<bool> lane_named;
      for (const Tracer::Event* e : events) {
        size_t lane = 0;
        while (lane < lanes.size() && !lanes[lane].Accepts(e->begin, e->end)) {
          ++lane;
        }
        if (lane == lanes.size() && lane < kMaxLanesPerTrack) {
          lanes.emplace_back();
          lane_named.push_back(false);
        } else if (lane >= kMaxLanesPerTrack) {
          lane = kMaxLanesPerTrack - 1;  // saturate rather than drop
        }
        lanes[lane].open_ends.push_back(e->end);
        const int tid = tid_base + static_cast<int>(lane);
        if (!lane_named[lane]) {
          lane_named[lane] = true;
          std::string tname = run.tracks[track].name;
          if (lane > 0) {
            tname += " #" + std::to_string(lane);
          }
          AppendMeta(pid, tid, "thread_name", tname, /*sort_index=*/false, &out);
          AppendMeta(pid, tid, "thread_sort_index", std::to_string(tid), /*sort_index=*/true,
                     &out);
        }
        out += "  {\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
               ",\"tid\":" + std::to_string(tid) + ",\"ts\":";
        AppendTimestampUs(e->begin, &out);
        out += ",\"dur\":";
        AppendTimestampUs(e->end - e->begin, &out);
        out += ",\"name\":";
        AppendJsonString(e->name, &out);
        out += ",\"args\":{\"trace\":" + std::to_string(e->trace_id) + "}},\n";
      }
    }
  }
  // Trailing comma is illegal JSON; close with a harmless final metadata
  // event instead of tracking comma state through the loops above.
  out += "  {\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"trace_export_done\",\"args\":{}}\n";
  out += "]\n}\n";
  return out;
}

}  // namespace strom
