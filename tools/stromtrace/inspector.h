// Protocol inspector for pcapng captures of the simulated wire (stromtrace).
// Decodes each frame down to the RoCE v2 transport headers, groups packets
// into flows keyed by (capture interface, src IP, dst IP, dest QP), builds a
// per-flow PSN timeline, and runs a conformance pass:
//
//   hard anomalies (always errors)
//     malformed       frame that should be RoCE but does not decode
//     icrc_mismatch   recomputed ICRC differs from the trailer
//     psn_gap         request or response PSN jumps past the expected value
//     mtu_violation   frame exceeds the configured Ethernet MTU
//     dropped_frame   frame annotated "dropped" by the link fault hooks
//
//   observations (errors only under strict mode)
//     duplicate_psn   PSN at or below the expected value — a retransmission
//     nak             AETH with a non-ACK syndrome
//
// The split keeps legitimate loss recovery (go-back-N retransmits, NAK/ACK
// sequences) from failing an inspection of a lossy run, while strict mode
// lets CI assert that a clean run produced none of it.
#ifndef TOOLS_STROMTRACE_INSPECTOR_H_
#define TOOLS_STROMTRACE_INSPECTOR_H_

#include <map>
#include <string>
#include <vector>

#include "src/proto/headers.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/pcap_reader.h"

namespace strom {

enum class AnomalyKind {
  kMalformed,
  kIcrcMismatch,
  kPsnGap,
  kMtuViolation,
  kDroppedFrame,
  kDuplicatePsn,  // observation
  kNak,           // observation
};

const char* AnomalyKindName(AnomalyKind kind);
// Observations describe legitimate protocol recovery, not defects.
bool AnomalyIsObservation(AnomalyKind kind);

struct Anomaly {
  AnomalyKind kind = AnomalyKind::kMalformed;
  std::string interface;   // capture interface the frame was seen on
  size_t packet_index = 0; // index into CaptureFile::packets
  SimTime timestamp = 0;
  std::string detail;
};

struct FlowSummary {
  struct Event {
    SimTime t = 0;
    Psn psn = 0;
    IbOpcode opcode = IbOpcode::kWriteOnly;
    uint32_t payload_len = 0;
    bool has_aeth = false;
    AckSyndrome syndrome = AckSyndrome::kAck;  // valid when has_aeth
    uint8_t ecn = 0;     // IP-header ECN codepoint (kEcnNotCapable/Ect0/Ce)
    bool becn = false;   // BTH BECN echo bit (the simulator's in-band CNP)
    std::string note;  // dropped / duplicate / gap / nak:<syndrome> / icrc
  };

  std::string interface;
  Ipv4Addr src_ip = 0;
  Ipv4Addr dst_ip = 0;
  Qpn dest_qp = 0;
  uint64_t packets = 0;
  uint64_t payload_bytes = 0;
  std::map<uint8_t, uint64_t> opcode_counts;  // keyed by raw opcode value
  Psn first_psn = 0;
  Psn last_psn = 0;
  SimTime first_ts = 0;
  SimTime last_ts = 0;
  uint64_t naks = 0;
  uint64_t duplicates = 0;
  std::vector<Event> timeline;  // one entry per packet, capture order

  std::string Name() const;  // "a.b.c.d->e.f.g.h qp<N>"
};

struct InspectOptions {
  size_t ip_mtu = 1500;  // frames larger than this + Eth header are flagged
};

struct Report {
  uint64_t total_packets = 0;
  uint64_t roce_packets = 0;
  uint64_t skipped_packets = 0;  // non-RoCE (e.g. TCP sharing the wire)
  std::vector<FlowSummary> flows;
  std::vector<Anomaly> anomalies;

  // Number of anomalies that count as errors; strict mode includes
  // observations.
  size_t ErrorCount(bool strict) const;
};

// Inspects an already-parsed capture.
Report InspectCapture(const CaptureFile& capture, const InspectOptions& options = {});

// Reads and inspects a pcapng file; fails only on unreadable/unparseable
// files (protocol anomalies are reported in the Report, not as a Status).
Result<Report> InspectFile(const std::string& path, const InspectOptions& options = {});

// Human-readable report: flow table + anomaly list; with `timeline`, the
// per-packet PSN timeline of every flow.
std::string FormatReport(const Report& report, bool timeline = false);

// --- fault analysis (stromtrace --faults) -----------------------------------
// Recovery/fault summary distilled from a Report. Wire captures record
// dropped frames too (annotated by the link), so counting how often the same
// request PSN was transmitted measures requester retries exactly: a PSN seen
// more than retry_limit + 1 times means the sender's retry budget was
// exhausted and the QP moved to the Error state.
struct FlowFaults {
  std::string interface;
  std::string name;              // FlowSummary::Name() of the flow
  Qpn dest_qp = 0;
  uint64_t packets = 0;
  uint64_t retransmits = 0;      // repeated-PSN transmissions (any class)
  uint64_t dropped_frames = 0;   // frames annotated dropped by the link
  uint64_t out_of_order = 0;     // forward PSN gaps observed
  uint32_t max_same_psn = 1;     // highest transmission count of one PSN
  std::map<uint8_t, uint64_t> naks;  // AETH syndrome -> count
  std::vector<Psn> exhausted_psns;   // PSNs sent > retry_limit + 1 times
};

struct FaultsReport {
  uint32_t retry_limit = 7;
  uint64_t total_retransmits = 0;
  uint64_t total_naks = 0;
  uint64_t total_dropped = 0;
  size_t exhaustion_events = 0;  // sum of exhausted_psns sizes
  std::vector<FlowFaults> flows;
};

// Builds the fault summary; `retry_limit` should match the run's
// RoceConfig::retry_limit (default 7).
FaultsReport BuildFaultsReport(const Report& report, uint32_t retry_limit = 7);

std::string FormatFaultsReport(const FaultsReport& report);

// --- congestion analysis (stromtrace --ecn) ---------------------------------
// ECN/BECN summary distilled from a Report. The simulator echoes congestion
// back in-band: a switch sets the IP-header CE codepoint on a queued frame,
// and the receiver echoes it in the BTH BECN bit of its next packet on that
// QP (the in-band CNP). A capture of a closed loop must therefore be
// self-consistent: BECN echoes without any delivered CE mark, or delivered
// CE marks with no echo anywhere in the capture set, indicate a broken
// feedback path. Frames annotated "dropped" by the link never reach the
// receiver and are excluded from the delivered count.
struct FlowEcn {
  std::string interface;
  std::string name;            // FlowSummary::Name() of the flow
  Qpn dest_qp = 0;
  uint64_t packets = 0;
  uint64_t ect = 0;            // frames sent ECN-capable (ECT(0))
  uint64_t ce_delivered = 0;   // CE-marked frames that reached the receiver
  uint64_t ce_dropped = 0;     // CE-marked frames annotated dropped
  uint64_t cnp = 0;            // frames carrying the BECN echo (rate-limiter events)
};

struct EcnReport {
  uint64_t total_ect = 0;
  uint64_t total_ce_delivered = 0;
  uint64_t total_ce_dropped = 0;
  uint64_t total_cnp = 0;
  // Feedback-loop violations, filled by CheckEcnFeedback; each entry is an
  // error for the exit status.
  std::vector<std::string> inconsistencies;
  std::vector<FlowEcn> flows;
};

// Builds per-flow ECN counts and totals. Does NOT run the feedback check:
// a single tap rarely sees both halves of the loop (a sender-side NIC tap
// sees echoes but never the marks applied downstream of it), so the check
// belongs to the aggregate over every capture of the run.
EcnReport BuildEcnReport(const Report& report);

// Merges `part` (one capture's report) into the aggregate `into`.
void MergeEcnReport(const EcnReport& part, EcnReport* into);

// Fills report.inconsistencies from the totals; call on the aggregate of all
// captures passed to one stromtrace invocation.
void CheckEcnFeedback(EcnReport* report);

std::string FormatEcnReport(const EcnReport& report);

// --- flow-stats decoding (stromtrace --flows) -------------------------------
// Aggregated view of a flows.csv written by a bench run with
// --record=flows (see src/telemetry/flow_stats.h for the row grammar):
// per-(label, host, QP) counters plus a DCQCN timeline summary.
struct FlowCsvReport {
  struct Flow {
    std::string label;
    int host = 0;
    Qpn qpn = 0;
    // Metric name -> value, in file order (completions, goodput_gbps, ...).
    std::vector<std::pair<std::string, double>> metrics;
  };
  struct DcqcnSummary {
    std::string label;
    int host = 0;
    Qpn qpn = 0;
    uint64_t cnp = 0;
    uint64_t cuts = 0;
    uint64_t increases = 0;
    double first_us = 0;
    double last_us = 0;
    double min_rate_gbps = 0;   // lowest rate seen in the timeline
    double last_rate_gbps = 0;  // rate at the final event
  };
  size_t rows = 0;                  // data rows parsed (flow + dcqcn)
  size_t malformed_rows = 0;        // rows that did not parse (errors)
  std::vector<Flow> flows;          // file order
  std::vector<DcqcnSummary> dcqcn;  // ordered by first event per flow
};

Result<FlowCsvReport> LoadFlowCsv(const std::string& path);
std::string FormatFlowCsvReport(const FlowCsvReport& report);

// --- post-mortem bundles (stromtrace --postmortem <stem>) -------------------
// Decoded and cross-checked flight-recorder bundle: the event rings from
// "<stem>.flightrec.bin" checked against the frame ring capture
// "<stem>.frames.pcapng". Every captured frame was recorded alongside a
// tx/rx ring event for the same host at the same timestamp and length, so a
// frame with no matching record (within the ring's retention window) means
// the bundle is internally inconsistent — a recorder defect or a mixed-up
// pair of files.
// Recovery timeline for one crash episode found in the rings (stromtrace
// --postmortem --faults): crash -> dead-peer detection -> backoff attempts ->
// lease re-acquire -> first post-restart delivery, with per-phase latencies
// derived from the kCrash/kRestart/kPeerDead/kReconnectAttempt/kLeaseAcquired
// records. Times are ring timestamps (ps); -1 = the phase never happened
// within the ring's retention window.
struct RecoveryTimeline {
  // One surviving host's view of the crashed component.
  struct Observer {
    int host = -1;
    SimTime detected = -1;       // first kPeerDead for this subject
    SimTime first_attempt = -1;  // first kReconnectAttempt
    int attempts = 0;            // backoff attempts until re-acquire (or ring end)
    SimTime reacquired = -1;     // first kLeaseAcquired after the crash
  };
  std::string what;   // "host1" / "nic2" / "switch0"
  uint8_t kind = 0;   // crash-record opcode: 0=host 1=nic 2=switch
  int target = -1;    // crashed node / switch index (the record's aux)
  SimTime crash = -1;
  SimTime restart = -1;                 // -1: crash-stop (no restart record)
  SimTime first_rx_after_restart = -1;  // crashed node's ring only (not switches)
  std::vector<Observer> observers;
};

struct PostmortemReport {
  std::string stem;
  std::string reason;  // dump trigger ("audit: ...", "watchdog: ...", ...)
  std::vector<std::vector<FlightRecord>> hosts;  // oldest-first per host
  uint64_t records = 0;
  std::map<uint8_t, uint64_t> type_counts;  // FlightRecordType -> count
  bool have_frames = false;                 // the pcapng side was readable
  uint64_t frames = 0;
  uint64_t frames_matched = 0;
  // Localization hints: the dump reason plus the QPs with anomaly records
  // (naks, timeouts, retransmits, error transitions, audit marks).
  std::vector<std::string> findings;
  // Cross-check failures; each is an error for the exit status.
  std::vector<std::string> inconsistencies;
  // One entry per kCrash record, ring-time order (see RecoveryTimeline).
  std::vector<RecoveryTimeline> recoveries;
};

Result<PostmortemReport> InspectPostmortem(const std::string& stem);
// With `timeline`, prints every ring record; otherwise the last few per host.
// With `faults`, appends the per-crash recovery timelines with phase
// latencies (detection, backoff, re-acquire, first post-restart delivery).
std::string FormatPostmortemReport(const PostmortemReport& report, bool timeline = false,
                                   bool faults = false);

}  // namespace strom

#endif  // TOOLS_STROMTRACE_INSPECTOR_H_
