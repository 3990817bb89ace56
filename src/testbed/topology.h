// The topology core: one run lifecycle for every topology. A topology is
// hosts (Node), the links between them and, on a switched rack, the
// FabricSwitches. Testbed (the paper's cable, src/testbed/testbed.h) and
// Fabric (every switched rack, src/fabric/fabric.h) only wire these
// together; the core owns them and everything that observes or breaks a run:
//   * the simulator, the ARP table, the telemetry bundle and the hosts
//     (host i is 10.0.<i / 250>.<i % 250 + 1>);
//   * the process-wide TestbedTelemetryDefaults, applied once the subclass
//     has wired its parts: pcapng capture, sampling, the fault plan, flow
//     stats, the flight recorder and the auditor;
//   * fault plans. Link k (in the order the subclass registered its links)
//     is plan sides 2k and 2k+1, host i is dmaI/hostI/nicI, and switch s is
//     switchS (leaves, then spines). A plan that names a component the
//     topology lacks is rejected before anything is attached; wildcards match
//     whatever exists;
//   * teardown: the conservation audits, the collector deposit and the
//     post-mortem dump, all run while every link and switch is still alive.
// A subclass supplies only its wiring and two hooks: how the wire is
// captured and which wire probes the sampler reads.
#ifndef SRC_TESTBED_TOPOLOGY_H_
#define SRC_TESTBED_TOPOLOGY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/faults/fault_engine.h"
#include "src/netsim/arp_table.h"
#include "src/netsim/fabric_switch.h"
#include "src/netsim/link.h"
#include "src/telemetry/pcap_writer.h"
#include "src/telemetry/telemetry.h"
#include "src/testbed/node.h"

namespace strom {

class Auditor;
class FlightRecorder;
class FlowStats;

// Process-wide telemetry defaults applied to every topology at construction.
// bench_util sets them from its --out, --record, --fault-plan and --audit
// flags, so every bench binary gains them without per-bench changes.
struct TestbedTelemetryDefaults {
  bool enable_trace = false;
  uint32_t sample_every = 1;
  // When set, each destructed topology deposits its run here (metrics
  // snapshot, trace events, sampler rows and flow stats), labeled
  // "run<N>:<profile name>".
  TelemetryCollector* collector = nullptr;
  // When non-empty, the first `capture_runs` constructed topologies tap
  // their wire and NIC boundaries into pcapng files named
  // "<capture_prefix>[.runN].{wire,fabric,node<i>.nic}.pcapng". Benches
  // build one topology per iteration, so the default of 1 captures only the
  // first.
  std::string capture_prefix;
  int capture_runs = 1;
  // When > 0, every topology samples queue depths / occupancy / utilization
  // into its telemetry sampler at this simulated-time interval.
  SimTime sample_interval = 0;
  // When set (bench_util --fault-plan), every topology attaches a FaultEngine
  // running this plan against its links, DMA engines, hosts and switches.
  // Null (the default) leaves the fault machinery entirely unhooked: no RNG
  // draws, no extra branches on the data path, byte-identical traffic.
  std::shared_ptr<const FaultPlan> fault_plan;
  // When set (bench_util --audit), every topology attaches it to its RoCE
  // stacks (inline PSN monotonicity) and runs link/port frame conservation
  // plus the CE=>BECN=>CNP ladder checks at teardown. Null (the default)
  // leaves every check compiled out of the hot path behind a single null
  // test.
  Auditor* auditor = nullptr;
  // When true (bench_util --record=flows), each run collects per-QP flow
  // stats and a sampled DCQCN timeline and deposits them with its metrics in
  // `collector`.
  bool flow_stats = false;
  // When true (bench_util --audit), every run keeps a flight recorder ring of
  // recent protocol events, which watchdog, fatal, audit and crash events
  // dump to "postmortem.*". A non-empty postmortem_stem (bench_util
  // --record=postmortem, or --audit with --out) keeps one too, sends those
  // dumps to "<postmortem_stem>.*" instead and forces a dump at teardown.
  bool flight_recorder = false;
  std::string postmortem_stem;
  // Crash episodes are a first-class flight-recorder dump trigger: the first
  // component death dumps the post-mortem bundle (first-trigger-wins, like
  // watchdog/fatal/audit). Off for search loops (the chaos explorer runs
  // hundreds of crashing schedules and only wants files for the reproducer).
  bool dump_on_crash = true;
  // Kept only for perfbench/stromperf.cc's config line; the single queue is the only scheduler.
  static constexpr int lp_threads = 0;
};

// Observer hook for crash/restart episodes: invoked after the component has
// crashed (`restarted == false`) or come back (`restarted == true`). The
// liveness and workload layers subscribe to drive lease expiry and session
// resume without polling.
using CrashListener = std::function<void(const FaultEpisode&, bool restarted)>;

class Topology {
 public:
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;
  virtual ~Topology();

  static TestbedTelemetryDefaults telemetry_defaults;

  // Sweep-point ordinal of the current thread, set by the parallel sweep
  // runner around each point (-1 = serial execution). It replaces the
  // process-wide run/capture counters so run labels ("run<N>:<profile>"),
  // collector merge order, and which runs get pcapng captures depend only on
  // the point's position in the sweep — never on worker scheduling — making
  // --jobs N output byte-identical to --jobs 1. The serial counters are
  // shared by every topology. constinit (here and at the definition) lets
  // other translation units access it directly instead of through a TLS
  // wrapper that tests a weak init-function symbol; GCC 12's UBSan null
  // check after that test misfires ("store to null pointer").
  static constinit thread_local int64_t run_ordinal;

  // The one simulator every host, link, switch and observer schedules on.
  Simulator& sim() { return sim_; }
  Telemetry& telemetry() { return *telemetry_; }
  Tracer& tracer() { return telemetry_->tracer; }
  const Profile& profile() const { return profile_; }

  Node& node(int i) { return *nodes_.at(i); }
  int num_hosts() const { return static_cast<int>(nodes_.size()); }
  // Switch `index` in the plan's numbering (leaves, then spines).
  FabricSwitch& switch_at(int index) { return *switches_.at(index); }
  int num_switches() const { return static_cast<int>(switches_.size()); }

  // Sets up a reliable connection between host `a` QP `qpn_a` and host `b`
  // QP `qpn_b` (out-of-band exchange of QPNs and initial PSNs).
  void ConnectQp(int a, Qpn qpn_a, int b, Qpn qpn_b, Psn psn_a = 1000, Psn psn_b = 5000);

  // Recovery path after a QP error: resets both ends and re-connects with
  // fresh PSNs (out-of-band resync). The new PSNs default to values disjoint
  // from ConnectQp's so stale in-flight frames are rejected as duplicates.
  void ReconnectQp(int a, Qpn qpn_a, int b, Qpn qpn_b, Psn psn_a = 2000, Psn psn_b = 6000);

  // An error naming the first episode whose target this topology lacks: a
  // link side >= 2 x links, a dma/host/nic index >= hosts, or a switch index
  // >= switches. Wildcard episodes always pass.
  Status CheckFaultPlan(const FaultPlan& plan) const;

  // Attaches a FaultEngine running `plan` against every link side, DMA
  // engine, host and switch. Called automatically at construction when
  // telemetry_defaults.fault_plan is set. May be called once per topology;
  // dies on a plan CheckFaultPlan rejects.
  void ApplyFaultPlan(std::shared_ptr<const FaultPlan> plan);
  FaultEngine* fault_engine() { return fault_engine_.get(); }

  // Registers a crash/restart observer. Call before the plan's first crash
  // fires. Listeners run after the component's own crash/restart handling.
  void AddCrashListener(CrashListener listener) {
    crash_listeners_.push_back(std::move(listener));
  }

  // Taps the wire (see CaptureWire) and each host's NIC boundary
  // ("<prefix>.node<i>.nic.pcapng") into pcapng files. Returns the created
  // file paths. Call before generating traffic (interfaces precede packets).
  std::vector<std::string> EnableCapture(const std::string& prefix);

  // Registers every component's sampler probes and starts a periodic
  // sampling event. The tick re-arms itself only while other events are
  // pending, so RunUntilIdle() still terminates.
  void StartSampling(SimTime interval);

  FlightRecorder* flight_recorder() { return flight_recorder_.get(); }
  FlowStats* flow_stats() { return flow_stats_.get(); }

 protected:
  // Builds the ARP table and `num_hosts` hosts, each attached to telemetry
  // as "node<i>".
  Topology(const Profile& profile, int num_hosts);

  // Applies telemetry_defaults. The subclass constructor calls it last,
  // once its links and switches are wired and registered.
  void InitObservability();

  // Opens a pcapng file that stays open until the topology dies.
  PcapWriter* OpenCapture(const std::string& path);

  // Opens the wire capture file(s) and taps the wire into them.
  virtual void CaptureWire(const std::string& prefix) = 0;
  // Registers the wire's sampler probes.
  virtual void SampleWire() = 0;

  // A link fault plans and the teardown audits address, under `name`.
  struct NamedLink {
    std::string name;
    PointToPointLink* link;
  };

  Profile profile_;
  Simulator sim_;
  ArpTable arp_;
  std::unique_ptr<Telemetry> telemetry_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // The parts a subclass wires live here, not in the subclass, so that
  // teardown runs while they are alive. A link a switch owns lives in its
  // switch; `cable_` is the cable's one link.
  std::vector<std::unique_ptr<FabricSwitch>> switches_;  // leaves, then spines
  std::unique_ptr<PointToPointLink> cable_;
  std::vector<NamedLink> links_;  // in plan order

 private:
  void ScheduleSample(SimTime interval);
  void RunTeardownAudits();
  void ArmCrashEpisodes();
  void OnCrashEpisode(FaultTargetKind kind, int index, const FaultEpisode& ep);
  void OnRestartEpisode(FaultTargetKind kind, int index, const FaultEpisode& ep);

  std::unique_ptr<FaultEngine> fault_engine_;
  std::unique_ptr<FlowStats> flow_stats_;
  std::unique_ptr<FlightRecorder> flight_recorder_;
  std::vector<std::unique_ptr<PcapWriter>> captures_;
  std::vector<CrashListener> crash_listeners_;
};

}  // namespace strom

#endif  // SRC_TESTBED_TOPOLOGY_H_
