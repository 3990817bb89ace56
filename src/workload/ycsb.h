// Open-loop YCSB-style workload engine over a Fabric: hundreds of thousands
// of logical client sessions per host, multiplexed onto a few QP lanes per
// host pair, issuing a zipfian-skewed mix of RDMA READs, RDMA WRITEs and
// StRoM GET RPCs (the fig08 traversal-kernel lookup) against every other
// host.
//
// Open loop means arrivals are a Poisson process that does not slow down when
// the fabric congests: an op's latency is measured from *arrival* to
// completion, so queueing delay — at the host backlog and in switch egress
// queues — lands in the tail percentiles. That is the property that makes
// p999 respond to ECN/DCQCN: without congestion control, incast fills the
// victim port's queue and every op behind it pays the drain time.
//
// Sessions are logical: session rank r (zipf-distributed, hottest first) is
// scattered by a 64-bit mix into (destination host, server key, QP lane), so
// per-QP state stays O(hosts * lanes) while the key space is millions wide.
#ifndef SRC_WORKLOAD_YCSB_H_
#define SRC_WORKLOAD_YCSB_H_

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/host/liveness.h"
#include "src/kvs/hash_table.h"
#include "src/testbed/stats.h"
#include "src/workload/zipf.h"

namespace strom {

struct YcsbConfig {
  // Logical sessions per host; the global session space is hosts * this.
  uint64_t sessions_per_host = 100'000;
  // QP lanes per (host, peer) pair. Host h's QPN for peer p, lane k is
  // 1 + p * qps_per_peer + k, so the profile needs
  // max_qps > hosts * qps_per_peer.
  uint32_t qps_per_peer = 4;
  double zipf_theta = 0.99;  // 0 = uniform
  // Op mix; the remainder after read + write is StRoM GET RPCs.
  double read_fraction = 0.50;
  double write_fraction = 0.40;
  uint32_t value_bytes = 512;
  // Distinct hash-table keys per server; session keys fold onto [1, this].
  uint32_t keys_per_server = 1024;
  // Open-loop Poisson arrival rate per host.
  double ops_per_host_per_sec = 2e5;
  // Posting window per host; arrivals beyond it wait in the host backlog
  // (their latency clock keeps running).
  uint32_t max_outstanding_per_host = 64;
  SimTime duration = Ms(2);   // arrival window
  SimTime warmup = Us(200);   // ops arriving before this are not sampled
  uint64_t seed = 42;
  // Incast stress (fig11-shuffle-style many-to-one): every host != 0 sends
  // only WRITEs, only to host 0.
  bool incast = false;
};

struct YcsbReport {
  uint64_t ops_arrived = 0;
  uint64_t ops_completed = 0;
  uint64_t ops_failed = 0;
  // Third terminal class (crash-recovery runs only): ops whose response was
  // provably lost to a crash and were fenced with KernelStatusCode::
  // kFencedStale instead of hanging. arrived == completed + failed + fenced
  // is the session-conservation invariant the chaos harness checks.
  uint64_t ops_fenced = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t gets = 0;
  // Crash-recovery aggregates (all zero unless EnableCrashRecovery ran).
  uint64_t peers_declared_dead = 0;
  uint64_t reconnect_attempts = 0;
  uint64_t leases_acquired = 0;
  uint64_t arrival_timers_cancelled_at_crash = 0;
  bool deadline_hit = false;  // drain did not finish in 3x duration
  LatencyStats all;
  LatencyStats read_lat;
  LatencyStats write_lat;
  LatencyStats get_lat;
  // Fabric aggregates (summed over all switch ports).
  uint64_t ce_marked = 0;
  uint64_t tail_drops = 0;
  uint64_t queue_bytes_peak = 0;
  // Stack aggregates (summed over all hosts).
  uint64_t rx_cnp = 0;
  uint64_t rate_cuts = 0;
  uint64_t pacing_deferrals = 0;
};

class YcsbEngine {
 public:
  YcsbEngine(Fabric& fabric, YcsbConfig config);
  // Latches the crash-recovery gauges this engine registered: the fabric's
  // metrics registry outlives the engine, so its end-of-run snapshot must
  // not evaluate closures over destroyed engine state.
  ~YcsbEngine();

  // Deploys traversal kernels, builds per-server hash tables and data
  // regions, connects every QP lane. Call once, before Run().
  void Setup();

  // Arms session-level crash recovery (call after Setup, before Run):
  //   * one LivenessMonitor per host, leases over every peer, reconnecting
  //     all QP lanes with fresh PSNs once a dead peer probes alive again;
  //   * fence pokes that terminate in-flight GETs whose response a crash
  //     made unreachable (see KernelStatusCode::kFencedStale);
  //   * arrival-stream pause/resume and backlog fast-fail across host
  //     crashes, so every op reaches exactly one terminal state.
  void EnableCrashRecovery(const LivenessConfig& liveness = {});
  LivenessMonitor* liveness(int host) {
    return crash_recovery_ ? liveness_.at(host).get() : nullptr;
  }

  // Schedules arrivals on every host, runs the simulation until all ops
  // drain (or 3x duration as a wedge guard), and returns the report.
  YcsbReport Run();

  // QPN of host `host`'s lane `lane` toward `peer` (also what Setup connects).
  Qpn QpnFor(int peer, uint32_t lane) const {
    return static_cast<Qpn>(1 + peer * config_.qps_per_peer + lane);
  }

 private:
  struct Op {
    enum Kind { kRead, kWrite, kGet };
    Kind kind = kRead;
    int dst = 0;
    uint64_t key = 1;       // server key in [1, keys_per_server]
    uint32_t lane = 0;
    SimTime arrival = 0;
  };
  // Per-posting-slot session state, tracked so a crash can fence exactly the
  // in-flight GETs it orphaned (READ/WRITE slots complete via the flush
  // path's error callbacks and need no poke).
  struct SlotInfo {
    bool get_pending = false;
    int dst = -1;
    VirtAddr status_addr = 0;
  };
  struct Host {
    Rng rng{1};
    std::deque<Op> backlog;
    uint32_t outstanding = 0;
    std::vector<uint32_t> free_slots;
    std::vector<SlotInfo> slots;
    VirtAddr local_buf = 0;  // per-slot staging for READ/WRITE payloads
    VirtAddr resp_buf = 0;   // per-slot [value][status] GET responses
    VirtAddr data_region = 0;  // server side: READ/WRITE target region
    std::optional<RemoteHashTable> table;  // server side: GET target
    bool arrivals_done = false;
    // Per-host arrival timer: the Poisson stream's callback is installed
    // once and re-armed per arrival, keeping the open loop allocation-free.
    Simulator::TimerHandle arrival_timer;
    // Per-host shard of the op counters and latency samples. Run() folds
    // the shards in host order; percentiles sort, so the report does not
    // depend on how completions interleaved across hosts.
    YcsbReport shard;
  };

  enum class Outcome { kOk, kFailed, kFenced };

  void ScheduleArrival(int host);
  void Arrival(int host, Simulator& sim);
  Op MakeOp(int host);
  void Pump(int host);
  void Post(int host, const Op& op);
  void Complete(int host, const Op& op, uint32_t slot, Outcome outcome);
  bool AllDone() const;
  // Crash-recovery plumbing (no-ops unless EnableCrashRecovery ran).
  void OnCrashEvent(const FaultEpisode& ep, bool restarted);
  void HandleHostCrash(int index, bool host_level);
  void HandleHostRestart(int index, bool host_level);
  void FenceSlot(int host, uint32_t slot);

  Fabric& fabric_;
  YcsbConfig config_;
  ZipfianGenerator zipf_;
  std::vector<Host> hosts_;
  YcsbReport report_;
  bool setup_done_ = false;
  bool deadline_hit_ = false;
  bool crash_recovery_ = false;
  // Skips the fence pokes, reintroducing the lost-response hang. Only the
  // chaos explorer's test sets it, through its friend peer, to show the
  // explorer finds a recovery bug.
  friend class YcsbEngineTestPeer;
  static inline bool skip_fence_pokes_ = false;
  std::vector<std::unique_ptr<LivenessMonitor>> liveness_;
  // Reconnect incarnation per unordered host pair: each reconnect draws a
  // fresh PSN block so frames from any earlier incarnation land outside the
  // new window.
  std::vector<uint32_t> pair_incarnation_;
};

}  // namespace strom

#endif  // SRC_WORKLOAD_YCSB_H_
