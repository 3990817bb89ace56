// The paper's testbed: two nodes on a direct cable. Topologies with more
// hosts or a switch tier use Fabric (src/fabric/fabric.h).
#ifndef SRC_TESTBED_TESTBED_H_
#define SRC_TESTBED_TESTBED_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/faults/fault_engine.h"
#include "src/netsim/arp_table.h"
#include "src/netsim/link.h"
#include "src/telemetry/pcap_writer.h"
#include "src/telemetry/telemetry.h"
#include "src/testbed/node.h"

namespace strom {

class Auditor;
class FlightRecorder;
class FlowStats;
class FlowStatsSink;
class LpScheduler;

// Process-wide telemetry defaults applied to every Testbed at construction.
// bench_util sets these from --trace-out/--metrics-out/--trace-sample so all
// bench binaries gain telemetry export without per-bench changes.
struct TestbedTelemetryDefaults {
  bool enable_trace = false;
  uint32_t sample_every = 1;
  // When set, each destructed Testbed deposits its run here (metrics
  // snapshot + trace events), labeled "run<N>:<profile name>".
  TelemetryCollector* collector = nullptr;
  // When non-empty, the first `capture_runs` constructed Testbeds tap their
  // wire and NIC boundaries into pcapng files named "<capture_prefix>[.runN]
  // .{wire,fabric,node<i>.nic}.pcapng". Benches build one Testbed per
  // iteration, so the default of 1 captures only the first.
  std::string capture_prefix;
  int capture_runs = 1;
  // When > 0, every Testbed samples queue depths / occupancy / utilization
  // into its telemetry sampler at this simulated-time interval.
  SimTime sample_interval = 0;
  // When set (bench_util --fault-plan), every Testbed attaches a FaultEngine
  // running this plan against its links and DMA engines. Null (the default)
  // leaves the fault machinery entirely unhooked: no RNG draws, no extra
  // branches on the data path, byte-identical traffic.
  std::shared_ptr<const FaultPlan> fault_plan;
  // When set (bench_util --audit), every Testbed/Fabric attaches it to its
  // RoCE stacks (inline PSN monotonicity) and runs link/port frame
  // conservation plus the CE=>BECN=>CNP ladder checks at teardown. Null (the
  // default) leaves every check compiled out of the hot path behind a single
  // null test.
  Auditor* auditor = nullptr;
  // When set (bench_util --flow-stats), each run collects per-QP flow stats
  // and a sampled DCQCN timeline and deposits them here at teardown under
  // the same "run<N>:<profile>" label as the metrics collector.
  FlowStatsSink* flow_sink = nullptr;
  // When true (bench_util --audit / --postmortem-out), every run keeps a
  // flight recorder ring of recent protocol events. A non-empty
  // postmortem_stem both (a) arms auto-dump on watchdog/fatal/audit events
  // and (b) forces an explicit bundle dump at teardown.
  bool flight_recorder = false;
  std::string postmortem_stem;
  // Crash episodes are a first-class flight-recorder dump trigger: the first
  // component death dumps the post-mortem bundle (first-trigger-wins, like
  // watchdog/fatal/audit). Off for search loops (the chaos explorer runs
  // hundreds of crashing schedules and only wants files for the reproducer).
  bool dump_on_crash = true;
  // When > 0 (bench_util --threads), topologies partition into logical
  // processes run by a conservative-parallel scheduler with this many worker
  // threads (src/sim/lp_scheduler.h): Fabric gives every host and switch its
  // own LP; the 2-node Testbed gives each node one. Same-seed runs are
  // byte-identical at any value, including 1. 0 (the default) keeps the
  // legacy single-queue simulator.
  int lp_threads = 0;
};

// Observer hook for crash/restart episodes: invoked after the component has
// crashed (`restarted == false`) or come back (`restarted == true`). The
// liveness and workload layers subscribe to drive lease expiry and session
// resume without polling.
using CrashListener = std::function<void(const FaultEpisode&, bool restarted)>;

class Testbed {
 public:
  explicit Testbed(const Profile& profile);
  ~Testbed();

  static TestbedTelemetryDefaults telemetry_defaults;

  // Sweep-point ordinal of the current thread, set by the parallel sweep
  // runner around each point (-1 = serial execution). It replaces the
  // process-wide run/capture counters so run labels ("run<N>:<profile>"),
  // collector merge order, and which runs get pcapng captures depend only on
  // the point's position in the sweep — never on worker scheduling — making
  // --jobs N output byte-identical to --jobs 1.
  static thread_local int64_t run_ordinal;

  Telemetry& telemetry() { return *telemetry_; }
  Tracer& tracer() { return telemetry_->tracer; }

  // In conservative-parallel mode this is node 0's logical process; its run
  // loops delegate to the LP scheduler and drive both LPs.
  Simulator& sim() { return sim_; }
  // Null unless telemetry_defaults.lp_threads > 0.
  LpScheduler* scheduler() { return scheduler_.get(); }
  Node& node(int i) { return *nodes_.at(i); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const Profile& profile() const { return profile_; }
  PointToPointLink* direct_link() { return link_.get(); }

  // Sets up a reliable connection between node `a` QP `qpn_a` and node `b`
  // QP `qpn_b` (out-of-band exchange of QPNs and initial PSNs).
  void ConnectQp(int a, Qpn qpn_a, int b, Qpn qpn_b, Psn psn_a = 1000, Psn psn_b = 5000);

  // Recovery path after a QP error: resets both ends and re-connects with
  // fresh PSNs (out-of-band resync). The new PSNs default to values disjoint
  // from ConnectQp's so stale in-flight frames are rejected as duplicates.
  void ReconnectQp(int a, Qpn qpn_a, int b, Qpn qpn_b, Psn psn_a = 2000, Psn psn_b = 6000);

  // Attaches a FaultEngine running `plan` against every link side and DMA
  // engine in the topology. Called automatically at construction when
  // telemetry_defaults.fault_plan is set. May be called once per Testbed.
  void ApplyFaultPlan(std::shared_ptr<const FaultPlan> plan);
  FaultEngine* fault_engine() { return fault_engine_.get(); }

  // Registers a crash/restart observer. Call before the plan's first crash
  // fires. Listeners run after the component's own crash/restart handling.
  void AddCrashListener(CrashListener listener) {
    crash_listeners_.push_back(std::move(listener));
  }

  // Taps the wire and each node's NIC boundary into pcapng files under
  // `prefix`. Returns the created file paths. Call before generating traffic
  // (interfaces precede packets).
  std::vector<std::string> EnableCapture(const std::string& prefix);

  // Registers every component's sampler probes and starts a periodic
  // sampling event. The tick re-arms itself only while other events are
  // pending, so RunUntilIdle() still terminates.
  void StartSampling(SimTime interval);

  FlightRecorder* flight_recorder() { return flight_recorder_.get(); }
  FlowStats* flow_stats() { return flow_stats_.get(); }

 private:
  void InitObservability();
  void ScheduleSample(SimTime interval);
  void RunTeardownAudits();
  void ArmCrashEpisodes();
  void OnCrashEpisode(int index, FaultTargetKind kind, const FaultEpisode& ep);
  void OnRestartEpisode(int index, FaultTargetKind kind, const FaultEpisode& ep);

  Profile profile_;
  Simulator sim_;  // node 0's LP in parallel mode; the only sim otherwise
  // Conservative-parallel members, populated only with lp_threads > 0.
  // Declared before nodes_ so the components die first and before
  // scheduler_ so workers are joined while both sims are alive.
  std::unique_ptr<Simulator> lp_peer_sim_;  // node 1's LP
  std::unique_ptr<LpScheduler> scheduler_;
  ArpTable arp_;
  std::unique_ptr<Telemetry> telemetry_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<PointToPointLink> link_;
  std::unique_ptr<FaultEngine> fault_engine_;
  std::unique_ptr<FlowStats> flow_stats_;
  std::unique_ptr<FlightRecorder> flight_recorder_;
  std::vector<std::unique_ptr<PcapWriter>> captures_;
  std::vector<CrashListener> crash_listeners_;
};

// Shared by Testbed and Fabric: checks frame conservation on both directions
// of one link ("frames sent = delivered + dropped") against `auditor`.
void AuditLinkConservation(Auditor& auditor, const std::string& name,
                           const PointToPointLink& link);

}  // namespace strom

#endif  // SRC_TESTBED_TESTBED_H_
