#include "src/testbed/topology.h"

#include "src/common/logging.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/flow_stats.h"

namespace strom {

namespace {

MacAddr MacForHost(int i) {
  return MacAddr{0x02, 0x00, 0x00, 0x00, static_cast<uint8_t>((i + 1) >> 8),
                 static_cast<uint8_t>((i + 1) & 0xFF)};
}

Ipv4Addr IpForHost(int i) {
  // 10.0.<hi>.<lo> with lo in 1..250: room for tens of thousands of hosts.
  return MakeIp(10, 0, static_cast<uint8_t>(i / 250), static_cast<uint8_t>(i % 250 + 1));
}

// The flight-record opcode of a crash or restart.
uint8_t CrashOpcode(FaultTargetKind kind) {
  switch (kind) {
    case FaultTargetKind::kHost:
      return 0;
    case FaultTargetKind::kNic:
      return 1;
    default:
      return 2;  // kSwitch
  }
}

}  // namespace

TestbedTelemetryDefaults Topology::telemetry_defaults;
constinit thread_local int64_t Topology::run_ordinal = -1;

Topology::Topology(const Profile& profile, int num_hosts)
    : profile_(profile), telemetry_(std::make_unique<Telemetry>()) {
  if (telemetry_defaults.enable_trace) {
    telemetry_->tracer.Enable(telemetry_defaults.sample_every);
  }
  for (int i = 0; i < num_hosts; ++i) {
    arp_.Add(IpForHost(i), MacForHost(i));
  }
  for (int i = 0; i < num_hosts; ++i) {
    nodes_.push_back(std::make_unique<Node>(sim_, profile, IpForHost(i), MacForHost(i), arp_));
    nodes_.back()->AttachTelemetry(telemetry_.get(), i);
  }
}

void Topology::InitObservability() {
  const TestbedTelemetryDefaults& d = telemetry_defaults;
  if (!d.capture_prefix.empty()) {
    // The sweep ordinal (when set) decides which runs capture; the static
    // counter is the serial fallback and is never touched by sweep workers.
    int64_t ordinal = run_ordinal;
    if (ordinal < 0) {
      static int capture_counter = 0;
      ordinal = capture_counter++;
    }
    if (ordinal < d.capture_runs) {
      std::string prefix = d.capture_prefix;
      if (ordinal > 0) {
        prefix += ".run" + std::to_string(ordinal);
      }
      EnableCapture(prefix);
    }
  }
  if (d.sample_interval > 0) {
    StartSampling(d.sample_interval);
  }
  if (d.fault_plan != nullptr) {
    ApplyFaultPlan(d.fault_plan);
  }
  if (d.flow_stats) {
    flow_stats_ = std::make_unique<FlowStats>();
    for (int i = 0; i < num_hosts(); ++i) {
      nodes_[i]->stack().AttachFlowStats(flow_stats_.get(), i);
    }
  }
  if (d.flight_recorder || !d.postmortem_stem.empty()) {
    flight_recorder_ = std::make_unique<FlightRecorder>(num_hosts());
    for (int i = 0; i < num_hosts(); ++i) {
      nodes_[i]->stack().AttachFlightRecorder(flight_recorder_.get(), i);
    }
    // Auto-dump destination for the watchdog/fatal/audit paths; the default
    // stem keeps audit aborts actionable even without --out.
    flight_recorder_->set_auto_dump_stem(
        d.postmortem_stem.empty() ? "postmortem" : d.postmortem_stem);
    RegisterGlobalFlightRecorder(flight_recorder_.get());
  }
  if (d.auditor != nullptr) {
    for (int i = 0; i < num_hosts(); ++i) {
      nodes_[i]->stack().AttachAuditor(d.auditor);
    }
    d.auditor->set_recorder(flight_recorder_.get());
  }
}

Status Topology::CheckFaultPlan(const FaultPlan& plan) const {
  for (const FaultEpisode& ep : plan.episodes) {
    int count = num_hosts();
    const char* what = "hosts";
    switch (FaultTargetKindOf(ep.type)) {
      case FaultTargetKind::kLink:
        count = 2 * static_cast<int>(links_.size());
        what = "link sides";
        break;
      case FaultTargetKind::kSwitch:
        count = num_switches();
        what = "switches";
        break;
      default:
        break;  // dma, host and nic targets are host indices
    }
    if (ep.target >= count) {
      return InvalidArgumentError("fault plan episode '" + ep.ToString() +
                                  "' names a component this topology lacks: it has " +
                                  std::to_string(count) + " " + what);
    }
  }
  return Status::Ok();
}

void Topology::ApplyFaultPlan(std::shared_ptr<const FaultPlan> plan) {
  STROM_CHECK(fault_engine_ == nullptr) << "fault plan already applied";
  STROM_CHECK(plan != nullptr);
  const Status st = CheckFaultPlan(*plan);
  STROM_CHECK(st.ok()) << st;
  fault_engine_ = std::make_unique<FaultEngine>(sim_, std::move(plan));
  for (size_t k = 0; k < links_.size(); ++k) {
    fault_engine_->AttachLink(*links_[k].link, 2 * static_cast<int>(k));
  }
  for (int i = 0; i < num_hosts(); ++i) {
    fault_engine_->AttachDma(i, nodes_[i]->dma());
  }
  ArmCrashEpisodes();
}

void Topology::ArmCrashEpisodes() {
  bool any_crash = false;
  for (const FaultEpisode& ep : fault_engine_->plan().episodes) {
    if (IsCrashFault(ep.type)) {
      any_crash = true;
      break;
    }
  }
  if (!any_crash) {
    return;
  }
  for (int i = 0; i < num_hosts(); ++i) {
    // Opt the DMA completion paths into crash-epoch guards; clean runs keep
    // the zero-allocation captures.
    nodes_[i]->dma().EnableCrashFaults();
    for (FaultTargetKind kind : {FaultTargetKind::kHost, FaultTargetKind::kNic}) {
      fault_engine_->ArmCrashes(
          kind, i,
          [this, kind, i](const FaultEpisode& ep) { OnCrashEpisode(kind, i, ep); },
          [this, kind, i](const FaultEpisode& ep) { OnRestartEpisode(kind, i, ep); });
    }
  }
  for (int s = 0; s < num_switches(); ++s) {
    fault_engine_->ArmCrashes(
        FaultTargetKind::kSwitch, s,
        [this, s](const FaultEpisode& ep) { OnCrashEpisode(FaultTargetKind::kSwitch, s, ep); },
        [this, s](const FaultEpisode& ep) {
          OnRestartEpisode(FaultTargetKind::kSwitch, s, ep);
        });
  }
}

void Topology::OnCrashEpisode(FaultTargetKind kind, int index, const FaultEpisode& ep) {
  std::string what;
  if (kind == FaultTargetKind::kSwitch) {
    FabricSwitch& sw = switch_at(index);
    sw.Crash();
    what = sw.name();
  } else {
    nodes_[index]->Crash(kind);
    what = (kind == FaultTargetKind::kHost ? "host" : "nic") + std::to_string(index);
  }
  if (flight_recorder_ != nullptr) {
    // Switch crashes land in ring 0 (they have no host ring of their own).
    const int ring = kind == FaultTargetKind::kSwitch ? 0 : index;
    flight_recorder_->Record(sim_.now(), ring, FlightRecordType::kCrash, CrashOpcode(kind),
                             0, 0, uint32_t(index));
    if (telemetry_defaults.dump_on_crash) {
      const MetricsRegistry::Snapshot snap = telemetry_->metrics.Snap();
      flight_recorder_->DumpAuto("crash: " + what, &snap);
    }
  }
  for (const CrashListener& listener : crash_listeners_) {
    listener(ep, /*restarted=*/false);
  }
}

void Topology::OnRestartEpisode(FaultTargetKind kind, int index, const FaultEpisode& ep) {
  if (kind == FaultTargetKind::kSwitch) {
    switch_at(index).Restart();
  } else {
    nodes_[index]->Restart(kind);
  }
  if (flight_recorder_ != nullptr) {
    const int ring = kind == FaultTargetKind::kSwitch ? 0 : index;
    flight_recorder_->Record(sim_.now(), ring, FlightRecordType::kRestart, CrashOpcode(kind),
                             0, 0, uint32_t(index));
  }
  for (const CrashListener& listener : crash_listeners_) {
    listener(ep, /*restarted=*/true);
  }
}

PcapWriter* Topology::OpenCapture(const std::string& path) {
  captures_.push_back(std::make_unique<PcapWriter>(path));
  if (!captures_.back()->status().ok()) {
    STROM_LOG(kWarning) << captures_.back()->status();
  }
  return captures_.back().get();
}

std::vector<std::string> Topology::EnableCapture(const std::string& prefix) {
  const size_t first = captures_.size();
  CaptureWire(prefix);
  for (int i = 0; i < num_hosts(); ++i) {
    nodes_[i]->AttachCapture(OpenCapture(prefix + ".node" + std::to_string(i) + ".nic.pcapng"),
                             i);
  }
  std::vector<std::string> paths;
  for (size_t k = first; k < captures_.size(); ++k) {
    paths.push_back(captures_[k]->path());
  }
  return paths;
}

void Topology::StartSampling(SimTime interval) {
  STROM_CHECK_GT(interval, 0);
  for (int i = 0; i < num_hosts(); ++i) {
    nodes_[i]->AttachSampler(telemetry_.get(), i);
  }
  SampleWire();
  ScheduleSample(interval);
}

void Topology::ScheduleSample(SimTime interval) {
  sim_.Schedule(interval, [this, interval] {
    telemetry_->sampler.Sample(sim_.now());
    // Re-arm only while the sim has other work: the running event has been
    // popped already, so an empty queue here means everything else is done
    // and RunUntilIdle() callers are not wedged by the sampler.
    if (sim_.pending_events() > 0) {
      ScheduleSample(interval);
    }
  });
}

void Topology::RunTeardownAudits() {
  Auditor& auditor = *telemetry_defaults.auditor;
  // Frame conservation on both directions of every link: sent = delivered +
  // dropped.
  for (const NamedLink& l : links_) {
    for (int side = 0; side < 2; ++side) {
      const LinkCounters& c = l.link->counters(side);
      auditor.NoteCheck();
      if (c.frames_sent != c.frames_delivered + c.frames_dropped) {
        auditor.Violation(l.name + ".side" + std::to_string(side) +
                          " conservation: sent=" + std::to_string(c.frames_sent) +
                          " delivered=" + std::to_string(c.frames_delivered) +
                          " dropped=" + std::to_string(c.frames_dropped));
      }
    }
  }
  // Per-port egress FIFO conservation on every switch.
  uint64_t ce_marked = 0;
  for (auto& sw : switches_) {
    sw->AuditConservation(auditor);
    for (int port = 0; port < sw->num_ports(); ++port) {
      ce_marked += sw->counters(port).ce_marked;
    }
  }
  // CE => BECN => CNP ladder: hosts cannot see more CE marks than switches
  // applied (none on the cable), echo more BECNs than CE marks seen, or
  // receive more CNPs than BECNs were echoed. Duplicated frames (fault
  // injection) may legitimately inflate the receive-side counts.
  uint64_t rx_ce = 0;
  uint64_t tx_becn = 0;
  uint64_t rx_cnp = 0;
  for (int i = 0; i < num_hosts(); ++i) {
    const RoceCounters& c = nodes_[i]->stack().counters();
    rx_ce += c.rx_ecn_ce;
    tx_becn += c.tx_becn;
    rx_cnp += c.rx_cnp;
    auditor.NoteCheck();
    if (c.tx_becn > c.rx_ecn_ce) {
      auditor.Violation("node" + std::to_string(i) +
                        " becn ladder: tx_becn=" + std::to_string(c.tx_becn) +
                        " > rx_ecn_ce=" + std::to_string(c.rx_ecn_ce));
    }
  }
  const uint64_t dup_slack =
      fault_engine_ != nullptr ? fault_engine_->counters().frames_duplicated : 0;
  auditor.NoteCheck();
  if (rx_ce > ce_marked + dup_slack) {
    auditor.Violation("ce ladder: rx_ecn_ce=" + std::to_string(rx_ce) +
                      " > ce_marked=" + std::to_string(ce_marked) +
                      " + dup_slack=" + std::to_string(dup_slack));
  }
  auditor.NoteCheck();
  if (rx_cnp > tx_becn + dup_slack) {
    auditor.Violation("cnp ladder: rx_cnp=" + std::to_string(rx_cnp) +
                      " > tx_becn=" + std::to_string(tx_becn) +
                      " + dup_slack=" + std::to_string(dup_slack));
  }
}

Topology::~Topology() {
  const TestbedTelemetryDefaults& d = telemetry_defaults;
  if (d.auditor != nullptr) {
    RunTeardownAudits();
  }
  if (d.collector != nullptr) {
    int64_t ordinal = run_ordinal;
    if (ordinal < 0) {
      static uint64_t run_counter = 0;
      ordinal = static_cast<int64_t>(run_counter++);
    }
    const std::string label = "run" + std::to_string(ordinal) + ":" + profile_.name;
    d.collector->Collect(label, *telemetry_, run_ordinal, flow_stats_.get());
  }
  if (flight_recorder_ != nullptr && !d.postmortem_stem.empty()) {
    const MetricsRegistry::Snapshot snap = telemetry_->metrics.Snap();
    flight_recorder_->DumpAuto("explicit", &snap);
  }
  if (d.auditor != nullptr && d.auditor->recorder() == flight_recorder_.get()) {
    d.auditor->set_recorder(nullptr);
  }
}

void Topology::ConnectQp(int a, Qpn qpn_a, int b, Qpn qpn_b, Psn psn_a, Psn psn_b) {
  Status st = node(a).stack().ConnectQp(qpn_a, qpn_b, node(b).ip(), psn_a, psn_b);
  STROM_CHECK(st.ok()) << st;
  st = node(b).stack().ConnectQp(qpn_b, qpn_a, node(a).ip(), psn_b, psn_a);
  STROM_CHECK(st.ok()) << st;
}

void Topology::ReconnectQp(int a, Qpn qpn_a, int b, Qpn qpn_b, Psn psn_a, Psn psn_b) {
  Status st = node(a).stack().ResetQp(qpn_a);
  STROM_CHECK(st.ok()) << st;
  st = node(b).stack().ResetQp(qpn_b);
  STROM_CHECK(st.ok()) << st;
  ConnectQp(a, qpn_a, b, qpn_b, psn_a, psn_b);
}

}  // namespace strom
