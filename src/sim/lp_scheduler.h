// Conservative parallel discrete-event scheduler.
//
// The topology is partitioned into logical processes (LPs) — one Simulator
// per host+NIC pair and one per fabric switch — and the scheduler runs them
// in barrier-synchronized epochs on a thread pool:
//
//   1. Drain every cross-LP channel (fixed registration order) into the
//      destination queues.
//   2. T = min next-event time over all LPs. The window horizon is
//      H = T + lookahead, where lookahead is the minimum link propagation
//      delay over all cross-LP links (a hard floor: no event at time t can
//      cause an effect on another LP before t + lookahead).
//   3. Every LP executes its events with when < H, in parallel. Frames that
//      cross an LP boundary are pushed into SPSC channels, never scheduled
//      into a foreign queue.
//   4. Barrier; repeat.
//
// Safety: an event at time t >= T sending over a cross-LP link delivers no
// earlier than t + lookahead >= H, so deliveries drained at the barrier are
// always in every destination's future. Each LP's clock stays at its last
// executed event inside the run loop and is aligned to the window horizon
// when control returns to the caller, so externally posted work (benches and
// tests scheduling between run calls) can never be in another LP's past.
//
// Determinism: windows, per-LP execution order, channel-drain order and the
// resulting tie-break sequence numbers depend only on event timestamps and
// the fixed LP/channel registration order — never on worker scheduling — so
// same-seed runs are byte-identical at any thread count. num_threads == 1
// runs the identical algorithm inline.
//
// Serialized epochs: observability sinks that keep cross-host mutable state
// (tracer, time-series sampler, flow stats) and fault plans (whose recovery
// paths reach across LPs, e.g. ReconnectQp) are not safe to run from worker
// threads. When any of them is attached, the owner calls
// SetSerializeEpochs(true): each window then runs the LPs sequentially in
// index order on the calling thread. The window algebra is unchanged, so
// serialized runs too are identical at any requested thread count.
#ifndef SRC_SIM_LP_SCHEDULER_H_
#define SRC_SIM_LP_SCHEDULER_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/spsc_channel.h"
#include "src/sim/time.h"

namespace strom {

class LpScheduler {
 public:
  // `num_threads` >= 1 is the worker count for parallel windows (the calling
  // thread doubles as worker 0; num_threads - 1 threads are spawned lazily
  // at the first parallel window).
  explicit LpScheduler(int num_threads);
  ~LpScheduler();

  LpScheduler(const LpScheduler&) = delete;
  LpScheduler& operator=(const LpScheduler&) = delete;

  // Registers an LP. Registration order is the LP index: it fixes both the
  // serialized execution order and the worker assignment (LP i runs on
  // worker i % num_threads). Binds the simulator back to this scheduler so
  // its public run loops drive the whole ensemble.
  int AddLp(Simulator* sim);

  // Creates the channel delivering into `dst`'s queue at each barrier.
  // Channels drain in creation order.
  SpscChannel* AddChannel(Simulator* dst);

  // Lowers the lookahead floor to `propagation` if it is smaller. Called by
  // every cross-LP link at bind time; must end up > 0 before the first run.
  void NoteLinkLookahead(SimTime propagation);

  void SetSerializeEpochs(bool on) { serialize_epochs_ = on; }
  bool serialize_epochs() const { return serialize_epochs_; }

  int num_threads() const { return num_threads_; }
  int num_lps() const { return static_cast<int>(lps_.size()); }
  SimTime lookahead() const { return lookahead_; }

  // Global run loops; Simulator delegates its public loops here when bound.
  // RunUntil evaluates `pred` at epoch barriers only (a satisfied predicate
  // is noticed after the window that made it true completes).
  void RunUntilIdle();
  bool RunUntil(const std::function<bool()>& pred);
  void RunFor(Simulator* caller, SimTime duration);
  // Sequential fine-grained stepping (Testbed-style drive loops): executes
  // the globally earliest event and aligns every LP clock to it. Never uses
  // the thread pool, so it is trivially thread-count independent.
  bool StepGlobal();

  // Aggregates over all LPs. pending_events includes undrained channel
  // items, so periodic probes re-arm while any LP still has work.
  uint64_t events_processed() const;
  size_t pending_events() const;

  // Total windows and barrier epochs executed (microbench + tests).
  uint64_t windows_executed() const { return windows_executed_; }
  uint64_t parallel_windows() const { return parallel_windows_; }

 private:
  SimTime NextEventTimeGlobal() const;
  void DrainChannels();
  // Runs every LP up to `horizon`, in parallel unless serialized.
  void ExecuteWindow(SimTime horizon);
  // Worker `share` executes its LP subset up to `horizon`.
  void RunShare(int share, SimTime horizon);
  void StartWorkers();
  void WorkerLoop(int share);
  void AlignClocks(SimTime t);

  const int num_threads_;
  SimTime lookahead_ = 0;
  bool serialize_epochs_ = false;
  bool lookahead_checked_ = false;
  std::vector<Simulator*> lps_;
  std::vector<std::unique_ptr<SpscChannel>> channels_;
  uint64_t windows_executed_ = 0;
  uint64_t parallel_windows_ = 0;
  // The horizon of the last executed window: every queued event is at or
  // past it, so clocks may be aligned to it whenever control leaves the
  // scheduler.
  SimTime barrier_time_ = 0;

  // Epoch gate for the persistent workers. The main thread publishes
  // {epoch, horizon} under mu_ and runs share 0 itself; workers run their
  // shares and the last one signals done. The mutex handoff is also the
  // happens-before edge that makes barrier-phase channel drains and
  // predicate evaluation race-free.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  uint64_t epoch_ = 0;
  SimTime window_horizon_ = 0;
  int workers_running_ = 0;
  bool shutdown_ = false;
};

}  // namespace strom

#endif  // SRC_SIM_LP_SCHEDULER_H_
