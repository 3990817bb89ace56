#include "src/fabric/fabric.h"

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

}  // namespace

Fabric::Fabric(const Profile& profile, FabricTopologyConfig topo)
    : profile_(profile), telemetry_(std::make_unique<Telemetry>()) {
  STROM_CHECK_GE(topo.num_hosts, 2);
  STROM_CHECK_GE(topo.num_leaves, 1);
  if (topo.num_leaves == 1) {
    STROM_CHECK_EQ(topo.num_spines, 0) << "single-switch rack has no spine tier";
  } else {
    STROM_CHECK_GE(topo.num_spines, 1) << "multi-leaf fabric needs a spine tier";
  }
  if (Testbed::telemetry_defaults.enable_trace) {
    telemetry_->tracer.Enable(Testbed::telemetry_defaults.sample_every);
  }

  topo.sw.port_rate_bps = profile.link.rate_bps;
  topo.sw.ip_mtu = profile.link.ip_mtu;
  hosts_per_leaf_ = (topo.num_hosts + topo.num_leaves - 1) / topo.num_leaves;

  for (int i = 0; i < topo.num_hosts; ++i) {
    arp_.Add(IpForHost(i), MacForHost(i));
  }
  for (int i = 0; i < topo.num_hosts; ++i) {
    nodes_.push_back(
        std::make_unique<Node>(sim_, profile, IpForHost(i), MacForHost(i), arp_));
    nodes_.back()->AttachTelemetry(telemetry_.get(), i);
  }
  for (int l = 0; l < topo.num_leaves; ++l) {
    leaves_.push_back(
        std::make_unique<FabricSwitch>(sim_, topo.sw, "leaf" + std::to_string(l)));
  }
  for (int s = 0; s < topo.num_spines; ++s) {
    spines_.push_back(
        std::make_unique<FabricSwitch>(sim_, topo.sw, "spine" + std::to_string(s)));
  }

  // Host links.
  std::vector<int> host_port(topo.num_hosts);
  for (int i = 0; i < topo.num_hosts; ++i) {
    FabricSwitch& sw = *leaves_[LeafOf(i)];
    const int port = sw.AddPort();
    host_port[i] = port;
    PointToPointLink& link = sw.PortLink(port);
    Node* node = nodes_[i].get();
    link.Attach(0, [node](FrameBuf frame, TraceContext trace) {
      node->OnFrame(std::move(frame), trace);
    });
    node->SetFrameSender([&link](FrameBuf frame, TraceContext trace) {
      link.Send(0, std::move(frame), trace);
    });
    sw.AddStaticRoute(MacForHost(i), port);
  }

  // Leaf-spine cables + seeded routes: leaf l starts out reaching remote
  // host h through spine h % num_spines; spine s reaches host h through its
  // cable to leaf(h). With exact routes everywhere, nothing floods. Source
  // learning then moves a leaf's route to h onto whichever spine last
  // delivered a frame from h (FabricSwitch::OnFrame).
  std::vector<std::vector<int>> uplink(leaves_.size());    // [leaf][spine] -> leaf port
  std::vector<std::vector<int>> downlink(spines_.size());  // [spine][leaf] -> spine port
  for (size_t l = 0; l < leaves_.size(); ++l) {
    uplink[l].resize(spines_.size());
  }
  for (size_t s = 0; s < spines_.size(); ++s) {
    downlink[s].resize(leaves_.size());
  }
  for (size_t l = 0; l < leaves_.size(); ++l) {
    for (size_t s = 0; s < spines_.size(); ++s) {
      auto [lp, sp] = leaves_[l]->ConnectTo(*spines_[s]);
      uplink[l][s] = lp;
      downlink[s][l] = sp;
    }
  }
  for (int h = 0; h < topo.num_hosts; ++h) {
    const int hl = LeafOf(h);
    for (size_t l = 0; l < leaves_.size(); ++l) {
      if (static_cast<int>(l) != hl) {
        leaves_[l]->AddStaticRoute(MacForHost(h), uplink[l][h % spines_.size()]);
      }
    }
    for (size_t s = 0; s < spines_.size(); ++s) {
      spines_[s]->AddStaticRoute(MacForHost(h), downlink[s][hl]);
    }
  }

  for (size_t l = 0; l < leaves_.size(); ++l) {
    leaves_[l]->AttachTelemetry(telemetry_.get(), leaves_[l]->name());
  }
  for (size_t s = 0; s < spines_.size(); ++s) {
    spines_[s]->AttachTelemetry(telemetry_.get(), spines_[s]->name());
  }
  InitObservability();
}

void Fabric::InitObservability() {
  const TestbedTelemetryDefaults& d = Testbed::telemetry_defaults;
  if (!d.capture_prefix.empty()) {
    int64_t ordinal = Testbed::run_ordinal;
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
    for (int i = 0; i < num_hosts(); ++i) {
      nodes_[i]->stack().AttachFlowStats(flow_stats_.get(), i);
    }
    // Flow-stats runs also want the switch-port congestion series; piggyback
    // on the sampler when it is running.
    if (d.sample_interval > 0) {
      for (auto& sw : leaves_) {
        sw->AttachFlowSampler(telemetry_.get(), sw->name());
      }
      for (auto& sw : spines_) {
        sw->AttachFlowSampler(telemetry_.get(), sw->name());
      }
    }
  }
  if (d.flight_recorder || !d.postmortem_stem.empty()) {
    flight_recorder_ = std::make_unique<FlightRecorder>(num_hosts());
    for (int i = 0; i < num_hosts(); ++i) {
      nodes_[i]->stack().AttachFlightRecorder(flight_recorder_.get(), i);
    }
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

void Fabric::RunTeardownAudits() {
  Auditor& auditor = *Testbed::telemetry_defaults.auditor;
  // Every fabric link, in the same (leaf, port) order ApplyFaultPlan uses.
  for (auto& sw : leaves_) {
    for (int port = 0; port < sw->num_ports(); ++port) {
      if (sw->OwnsPortLink(port)) {
        AuditLinkConservation(auditor,
                              sw->name() + ".port" + std::to_string(port),
                              sw->PortLink(port));
      }
    }
  }
  // Per-port egress FIFO conservation on every switch.
  uint64_t ce_marked = 0;
  for (auto& sw : leaves_) {
    sw->AuditConservation(auditor);
    for (int port = 0; port < sw->num_ports(); ++port) {
      ce_marked += sw->counters(port).ce_marked;
    }
  }
  for (auto& sw : spines_) {
    sw->AuditConservation(auditor);
    for (int port = 0; port < sw->num_ports(); ++port) {
      ce_marked += sw->counters(port).ce_marked;
    }
  }
  // CE => BECN => CNP ladder across the whole rack: hosts cannot see more CE
  // marks than switches applied, echo more BECNs than CE marks seen, or
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
      auditor.Violation("host" + std::to_string(i) +
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

Fabric::~Fabric() {
  const TestbedTelemetryDefaults& d = Testbed::telemetry_defaults;
  if (d.auditor != nullptr) {
    RunTeardownAudits();
  }
  if (d.collector != nullptr ||
      (d.flow_sink != nullptr && flow_stats_ != nullptr)) {
    int64_t ordinal = Testbed::run_ordinal;
    if (ordinal < 0) {
      static uint64_t run_counter = 0;
      ordinal = static_cast<int64_t>(run_counter++);
    }
    const std::string label = "run" + std::to_string(ordinal) + ":" + profile_.name;
    if (d.collector != nullptr) {
      d.collector->Collect(label, *telemetry_, Testbed::run_ordinal);
    }
    if (d.flow_sink != nullptr && flow_stats_ != nullptr) {
      d.flow_sink->Deposit(label, *flow_stats_, Testbed::run_ordinal);
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

void Fabric::ConnectQp(int a, Qpn qpn_a, int b, Qpn qpn_b, Psn psn_a, Psn psn_b) {
  Status st = node(a).stack().ConnectQp(qpn_a, qpn_b, node(b).ip(), psn_a, psn_b);
  STROM_CHECK(st.ok()) << st;
  st = node(b).stack().ConnectQp(qpn_b, qpn_a, node(a).ip(), psn_b, psn_a);
  STROM_CHECK(st.ok()) << st;
}

void Fabric::ReconnectQp(int a, Qpn qpn_a, int b, Qpn qpn_b, Psn psn_a, Psn psn_b) {
  Status st = node(a).stack().ResetQp(qpn_a);
  STROM_CHECK(st.ok()) << st;
  st = node(b).stack().ResetQp(qpn_b);
  STROM_CHECK(st.ok()) << st;
  ConnectQp(a, qpn_a, b, qpn_b, psn_a, psn_b);
}

void Fabric::ApplyFaultPlan(std::shared_ptr<const FaultPlan> plan) {
  STROM_CHECK(fault_engine_ == nullptr) << "fault plan already applied";
  STROM_CHECK(plan != nullptr);
  fault_engine_ = std::make_unique<FaultEngine>(sim_, std::move(plan));
  // Spines own no links (cables belong to the leaf that dialed ConnectTo),
  // so (leaf, port) order over owned links enumerates every fabric link
  // exactly once: host links first per leaf, then that leaf's uplinks.
  int link_ordinal = 0;
  for (auto& sw : leaves_) {
    for (int port = 0; port < sw->num_ports(); ++port) {
      if (sw->OwnsPortLink(port)) {
        fault_engine_->AttachLink(sw->PortLink(port), 2 * link_ordinal);
        ++link_ordinal;
      }
    }
  }
  for (int i = 0; i < num_hosts(); ++i) {
    fault_engine_->AttachDma(i, nodes_[i]->dma());
  }
  ArmCrashEpisodes();
}

void Fabric::ArmCrashEpisodes() {
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
  // Switch numbering in plans: leaves 0..L-1, then spines L..L+S-1.
  const int num_switches = num_leaves() + num_spines();
  for (int s = 0; s < num_switches; ++s) {
    fault_engine_->ArmCrashes(
        FaultTargetKind::kSwitch, s,
        [this, s](const FaultEpisode& ep) {
          OnCrashEpisode(FaultTargetKind::kSwitch, s, ep);
        },
        [this, s](const FaultEpisode& ep) {
          OnRestartEpisode(FaultTargetKind::kSwitch, s, ep);
        });
  }
}

namespace {
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

void Fabric::OnCrashEpisode(FaultTargetKind kind, int index, const FaultEpisode& ep) {
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
    if (Testbed::telemetry_defaults.dump_on_crash) {
      const MetricsRegistry::Snapshot snap = telemetry_->metrics.Snap();
      flight_recorder_->DumpAuto("crash: " + what, &snap);
    }
  }
  for (const CrashListener& listener : crash_listeners_) {
    listener(ep, /*restarted=*/false);
  }
}

void Fabric::OnRestartEpisode(FaultTargetKind kind, int index, const FaultEpisode& ep) {
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

std::vector<std::string> Fabric::EnableCapture(const std::string& prefix) {
  std::vector<std::string> paths;
  auto add = [&](const std::string& path) -> PcapWriter* {
    captures_.push_back(std::make_unique<PcapWriter>(path));
    if (!captures_.back()->status().ok()) {
      STROM_LOG(kWarning) << captures_.back()->status();
    }
    paths.push_back(path);
    return captures_.back().get();
  };
  PcapWriter* fabric_writer = add(prefix + ".fabric.pcapng");
  for (auto& sw : leaves_) {
    sw->AttachCapture(fabric_writer);
  }
  for (auto& sw : spines_) {
    sw->AttachCapture(fabric_writer);  // no-op today: spines own no links
  }
  for (int i = 0; i < num_hosts(); ++i) {
    nodes_[i]->AttachCapture(add(prefix + ".node" + std::to_string(i) + ".nic.pcapng"), i);
  }
  return paths;
}

void Fabric::StartSampling(SimTime interval) {
  STROM_CHECK_GT(interval, 0);
  for (int i = 0; i < num_hosts(); ++i) {
    nodes_[i]->AttachSampler(telemetry_.get(), i);
  }
  for (auto& sw : leaves_) {
    sw->AttachSampler(telemetry_.get(), sw->name());
  }
  for (auto& sw : spines_) {
    sw->AttachSampler(telemetry_.get(), sw->name());
  }
  ScheduleSample(interval);
}

void Fabric::ScheduleSample(SimTime interval) {
  sim_.Schedule(interval, [this, interval] {
    telemetry_->sampler.Sample(sim_.now());
    if (sim_.pending_events() > 0) {
      ScheduleSample(interval);
    }
  });
}

}  // namespace strom
