#include "src/testbed/testbed.h"

#include "src/common/logging.h"
#include "src/sim/lp_scheduler.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/flow_stats.h"

namespace strom {

namespace {

constexpr int kNumNodes = 2;  // the paper's two machines on one cable

MacAddr MacForIndex(int i) {
  return MacAddr{0x02, 0x00, 0x00, 0x00, 0x00, static_cast<uint8_t>(i + 1)};
}

}  // namespace

void AuditLinkConservation(Auditor& auditor, const std::string& name,
                           const PointToPointLink& link) {
  for (int side = 0; side < 2; ++side) {
    const LinkCounters& c = link.counters(side);
    auditor.NoteCheck();
    if (c.frames_sent != c.frames_delivered + c.frames_dropped) {
      auditor.Violation(name + ".side" + std::to_string(side) +
                        " conservation: sent=" + std::to_string(c.frames_sent) +
                        " delivered=" + std::to_string(c.frames_delivered) +
                        " dropped=" + std::to_string(c.frames_dropped));
    }
  }
}

TestbedTelemetryDefaults Testbed::telemetry_defaults;
thread_local int64_t Testbed::run_ordinal = -1;

Testbed::Testbed(const Profile& profile)
    : profile_(profile), telemetry_(std::make_unique<Telemetry>()) {
  if (telemetry_defaults.enable_trace) {
    telemetry_->tracer.Enable(telemetry_defaults.sample_every);
  }

  // Conservative-parallel partition: node 0 stays on sim_ (so Testbed::sim()
  // keeps working as the run-loop entry point), node 1 gets its own LP, and
  // the cable between them carries cross-LP traffic.
  if (telemetry_defaults.lp_threads > 0) {
    scheduler_ = std::make_unique<LpScheduler>(telemetry_defaults.lp_threads);
    scheduler_->AddLp(&sim_);
    lp_peer_sim_ = std::make_unique<Simulator>();
    scheduler_->AddLp(lp_peer_sim_.get());
  }

  for (int i = 0; i < kNumNodes; ++i) {
    arp_.Add(MakeIp(10, 0, 0, static_cast<uint8_t>(i + 1)), MacForIndex(i));
  }
  for (int i = 0; i < kNumNodes; ++i) {
    const Ipv4Addr ip = MakeIp(10, 0, 0, static_cast<uint8_t>(i + 1));
    Simulator& node_sim =
        (i == 1 && lp_peer_sim_ != nullptr) ? *lp_peer_sim_ : sim_;
    nodes_.push_back(
        std::make_unique<Node>(node_sim, profile, ip, MacForIndex(i), arp_));
    nodes_.back()->AttachTelemetry(telemetry_.get(), i);
  }

  link_ = std::make_unique<PointToPointLink>(sim_, profile.link);
  if (scheduler_ != nullptr) {
    link_->BindLp(&sim_, lp_peer_sim_.get(), scheduler_.get());
  }
  link_->AttachTelemetry(telemetry_.get(), "network");
  for (int i = 0; i < kNumNodes; ++i) {
    Node* node = nodes_[i].get();
    link_->Attach(i, [node](FrameBuf frame, TraceContext trace) {
      node->OnFrame(std::move(frame), trace);
    });
    PointToPointLink* link = link_.get();
    node->SetFrameSender([link, i](FrameBuf frame, TraceContext trace) {
      link->Send(i, std::move(frame), trace);
    });
  }
  InitObservability();
}

void Testbed::InitObservability() {
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
  if (d.flow_sink != nullptr) {
    flow_stats_ = std::make_unique<FlowStats>();
    for (int i = 0; i < num_nodes(); ++i) {
      nodes_[i]->stack().AttachFlowStats(flow_stats_.get(), i);
    }
  }
  if (d.flight_recorder || !d.postmortem_stem.empty()) {
    flight_recorder_ = std::make_unique<FlightRecorder>(num_nodes());
    for (int i = 0; i < num_nodes(); ++i) {
      nodes_[i]->stack().AttachFlightRecorder(flight_recorder_.get(), i);
    }
    // Auto-dump destination for the watchdog/fatal/audit paths; the default
    // stem keeps audit aborts actionable even without --postmortem-out.
    flight_recorder_->set_auto_dump_stem(
        d.postmortem_stem.empty() ? "postmortem" : d.postmortem_stem);
    RegisterGlobalFlightRecorder(flight_recorder_.get());
  }
  if (d.auditor != nullptr) {
    for (int i = 0; i < num_nodes(); ++i) {
      nodes_[i]->stack().AttachAuditor(d.auditor);
    }
    d.auditor->set_recorder(flight_recorder_.get());
  }
  if (scheduler_ != nullptr &&
      (telemetry_->tracer.enabled() || d.flow_sink != nullptr)) {
    // Trace spans and flow-stats callbacks read shared state mid-window.
    // (StartSampling and ApplyFaultPlan serialize themselves; captures, the
    // flight recorder and the auditor are sharded/atomic and stay parallel.)
    scheduler_->SetSerializeEpochs(true);
  }
}

void Testbed::ApplyFaultPlan(std::shared_ptr<const FaultPlan> plan) {
  STROM_CHECK(fault_engine_ == nullptr) << "fault plan already applied";
  STROM_CHECK(plan != nullptr);
  if (scheduler_ != nullptr) {
    // Fault recovery (QP reconnects) touches both stacks across the LP split.
    scheduler_->SetSerializeEpochs(true);
  }
  fault_engine_ = std::make_unique<FaultEngine>(sim_, std::move(plan));
  fault_engine_->AttachLink(*link_, 0);
  for (int i = 0; i < num_nodes(); ++i) {
    fault_engine_->AttachDma(i, nodes_[i]->dma());
  }
  ArmCrashEpisodes();
}

void Testbed::ArmCrashEpisodes() {
  bool any_crash = false;
  for (const FaultEpisode& ep : fault_engine_->plan().episodes) {
    if (IsCrashFault(ep.type)) {
      any_crash = true;
      if (ep.type == FaultType::kSwitchCrash) {
        STROM_LOG(kWarning) << "switch crash episodes are ignored by Testbed "
                               "(use Fabric for a crashable switch tier)";
      }
    }
  }
  if (!any_crash) {
    return;
  }
  for (int i = 0; i < num_nodes(); ++i) {
    // Opt the DMA completion paths into crash-epoch guards; clean runs keep
    // the zero-allocation captures.
    nodes_[i]->dma().EnableCrashFaults();
    for (FaultTargetKind kind : {FaultTargetKind::kHost, FaultTargetKind::kNic}) {
      fault_engine_->ArmCrashes(
          kind, i, nodes_[i]->sim(),
          [this, i, kind](const FaultEpisode& ep) { OnCrashEpisode(i, kind, ep); },
          [this, i, kind](const FaultEpisode& ep) { OnRestartEpisode(i, kind, ep); });
    }
  }
}

void Testbed::OnCrashEpisode(int index, FaultTargetKind kind, const FaultEpisode& ep) {
  Node& n = *nodes_[index];
  n.Crash(kind);
  if (flight_recorder_ != nullptr) {
    flight_recorder_->Record(n.sim().now(), index, FlightRecordType::kCrash,
                             kind == FaultTargetKind::kHost ? 0 : 1, 0, 0,
                             uint32_t(index));
    if (telemetry_defaults.dump_on_crash) {
      const MetricsRegistry::Snapshot snap = telemetry_->metrics.Snap();
      flight_recorder_->DumpAuto(
          std::string("crash: ") + (kind == FaultTargetKind::kHost ? "host" : "nic") +
              std::to_string(index),
          &snap);
    }
  }
  for (const CrashListener& listener : crash_listeners_) {
    listener(ep, /*restarted=*/false);
  }
}

void Testbed::OnRestartEpisode(int index, FaultTargetKind kind, const FaultEpisode& ep) {
  Node& n = *nodes_[index];
  n.Restart(kind);
  if (flight_recorder_ != nullptr) {
    flight_recorder_->Record(n.sim().now(), index, FlightRecordType::kRestart,
                             kind == FaultTargetKind::kHost ? 0 : 1, 0, 0,
                             uint32_t(index));
  }
  for (const CrashListener& listener : crash_listeners_) {
    listener(ep, /*restarted=*/true);
  }
}

std::vector<std::string> Testbed::EnableCapture(const std::string& prefix) {
  std::vector<std::string> paths;
  auto add = [&](const std::string& path) -> PcapWriter* {
    captures_.push_back(std::make_unique<PcapWriter>(path));
    if (!captures_.back()->status().ok()) {
      STROM_LOG(kWarning) << captures_.back()->status();
    }
    paths.push_back(path);
    return captures_.back().get();
  };
  link_->AttachCapture(add(prefix + ".wire.pcapng"), "wire");
  for (int i = 0; i < num_nodes(); ++i) {
    nodes_[i]->AttachCapture(add(prefix + ".node" + std::to_string(i) + ".nic.pcapng"), i);
  }
  if (scheduler_ != nullptr) {
    // Each capture interface is written by exactly one LP; buffering and
    // sorting at Close() makes the files byte-identical at any thread count.
    for (auto& capture : captures_) {
      capture->EnableDeterministicMerge();
    }
  }
  return paths;
}

void Testbed::StartSampling(SimTime interval) {
  STROM_CHECK_GT(interval, 0);
  if (scheduler_ != nullptr) {
    scheduler_->SetSerializeEpochs(true);  // probes read both LPs' state
  }
  for (int i = 0; i < num_nodes(); ++i) {
    nodes_[i]->AttachSampler(telemetry_.get(), i);
  }
  link_->AttachSampler(telemetry_.get(), "network");
  ScheduleSample(interval);
}

void Testbed::ScheduleSample(SimTime interval) {
  sim_.Schedule(interval, [this, interval] {
    telemetry_->sampler.Sample(sim_.now());
    // Re-arm only while the sim has other work: the running event has been
    // popped already, so an empty queue here means everything else is done
    // and RunUntilIdle() callers are not wedged by the sampler. With the LP
    // scheduler, "other work" spans every LP and the in-flight channels.
    const size_t pending = scheduler_ != nullptr ? scheduler_->pending_events()
                                                 : sim_.pending_events();
    if (pending > 0) {
      ScheduleSample(interval);
    }
  });
}

void Testbed::RunTeardownAudits() {
  Auditor& auditor = *telemetry_defaults.auditor;
  AuditLinkConservation(auditor, "network", *link_);
  // CE => BECN => CNP ladder: a BECN echo consumes a pending CE mark, so per
  // host echoes never exceed marks seen; globally, CNPs received never
  // exceed echoes sent (duplicated frames may inflate the receive side).
  uint64_t tx_becn = 0;
  uint64_t rx_cnp = 0;
  for (int i = 0; i < num_nodes(); ++i) {
    const RoceCounters& c = nodes_[i]->stack().counters();
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
  if (rx_cnp > tx_becn + dup_slack) {
    auditor.Violation("cnp ladder: rx_cnp=" + std::to_string(rx_cnp) +
                      " > tx_becn=" + std::to_string(tx_becn) +
                      " + dup_slack=" + std::to_string(dup_slack));
  }
}

Testbed::~Testbed() {
  const TestbedTelemetryDefaults& d = telemetry_defaults;
  if (d.auditor != nullptr) {
    RunTeardownAudits();
  }
  if (d.collector != nullptr ||
      (d.flow_sink != nullptr && flow_stats_ != nullptr)) {
    int64_t ordinal = run_ordinal;
    if (ordinal < 0) {
      static uint64_t run_counter = 0;
      ordinal = static_cast<int64_t>(run_counter++);
    }
    const std::string label = "run" + std::to_string(ordinal) + ":" + profile_.name;
    if (d.collector != nullptr) {
      d.collector->Collect(label, *telemetry_, run_ordinal);
    }
    if (d.flow_sink != nullptr && flow_stats_ != nullptr) {
      d.flow_sink->Deposit(label, *flow_stats_, run_ordinal);
    }
  }
  if (flight_recorder_ != nullptr && !d.postmortem_stem.empty()) {
    const MetricsRegistry::Snapshot snap = telemetry_->metrics.Snap();
    flight_recorder_->DumpAuto("explicit", &snap);
  }
  if (d.auditor != nullptr && d.auditor->recorder() == flight_recorder_.get()) {
    d.auditor->set_recorder(nullptr);
  }
}

void Testbed::ConnectQp(int a, Qpn qpn_a, int b, Qpn qpn_b, Psn psn_a, Psn psn_b) {
  Status st = node(a).stack().ConnectQp(qpn_a, qpn_b, node(b).ip(), psn_a, psn_b);
  STROM_CHECK(st.ok()) << st;
  st = node(b).stack().ConnectQp(qpn_b, qpn_a, node(a).ip(), psn_b, psn_a);
  STROM_CHECK(st.ok()) << st;
}

void Testbed::ReconnectQp(int a, Qpn qpn_a, int b, Qpn qpn_b, Psn psn_a, Psn psn_b) {
  Status st = node(a).stack().ResetQp(qpn_a);
  STROM_CHECK(st.ok()) << st;
  st = node(b).stack().ResetQp(qpn_b);
  STROM_CHECK(st.ok()) << st;
  ConnectQp(a, qpn_a, b, qpn_b, psn_a, psn_b);
}

}  // namespace strom
