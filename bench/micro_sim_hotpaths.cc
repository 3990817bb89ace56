// Microbenchmarks for the simulator's own hot paths (not simulated
// behaviour): event-queue push/pop, CRC32/CRC64 bulk throughput, pooled
// frame allocation/cloning, and the conservative-parallel core's cross-LP
// channel and barrier-epoch protocol. These are the paths the slab-pooled
// frame buffers, indexed 4-ary event heap, slice-by-8 CRC tables, and the LP
// scheduler optimize; run with --perf-out to capture events/sec alongside.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/crc.h"
#include "src/common/frame_buf.h"
#include "src/pcie/host_memory.h"
#include "src/proto/packet.h"
#include "src/sim/event_queue.h"
#include "src/sim/lp_scheduler.h"
#include "src/sim/spsc_channel.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

// Push/pop through a queue that stays ~1k events deep, timestamps striding
// like a busy link's serialization events.
void EventQueuePushPop(benchmark::State& state) {
  EventQueue q;
  SimTime now = 0;
  uint64_t sink = 0;
  for (int i = 0; i < 1000; ++i) {
    q.Push(now + 100 + (i % 7) * 13, [&sink] { ++sink; });
  }
  for (auto _ : state) {
    EventQueue::Event ev = q.Pop();
    now = ev.when;
    ev.fn();
    q.Push(now + 100 + (sink % 7) * 13, [&sink] { ++sink; });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(EventQueuePushPop);

// Same-timestamp burst: the pattern ACK storms produce.
void EventQueueSameTimestampBurst(benchmark::State& state) {
  EventQueue q;
  uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.Push(1000, [&sink] { ++sink; });
    }
    while (!q.empty()) {
      q.Pop().fn();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(EventQueueSameTimestampBurst);

// Retransmission-timer churn: a population of timers parked ~100 us out
// (far future relative to the ~100 ns between arms) that are re-armed and
// cancelled long before they fire — the pattern every ACKed QP produces.
// Each re-arm is an O(log n) remove+insert in a 1k-deep heap.
void EventCoreTimerChurn(benchmark::State& state) {
  EventQueue q;
  constexpr int kTimers = 1024;
  constexpr SimTime kRto = 100'000'000;  // 100 us in ps
  std::vector<EventQueue::TimerId> timers;
  timers.reserve(kTimers);
  uint64_t fired = 0;
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(q.CreateTimer([&fired] { ++fired; }));
  }
  SimTime now = 0;
  for (int i = 0; i < kTimers; ++i) {
    q.ArmTimer(timers[i], now + kRto + i);
  }
  uint32_t idx = 0;
  for (auto _ : state) {
    now += 97;  // ~100 ns between protocol events
    q.ArmTimer(timers[idx], now + kRto);  // progress: reset the deadline
    idx = (idx + 1) & (kTimers - 1);
    if ((idx & 7) == 0) {
      q.CancelTimer(timers[idx]);  // fully ACKed: deadline disappears
      q.ArmTimer(timers[idx], now + kRto);
    }
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(EventCoreTimerChurn);

void Crc32Throughput(benchmark::State& state) {
  const ByteBuffer data = RandomBytes(static_cast<size_t>(state.range(0)), 1);
  uint32_t sink = 0;
  for (auto _ : state) {
    sink ^= Crc32::Compute(data);
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(Crc32Throughput)->Arg(64)->Arg(1440)->Arg(65536);

void Crc64Throughput(benchmark::State& state) {
  const ByteBuffer data = RandomBytes(static_cast<size_t>(state.range(0)), 2);
  uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= Crc64::Compute(data);
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(Crc64Throughput)->Arg(64)->Arg(1440)->Arg(65536);

// Steady-state frame allocation: after warmup every block comes from the
// thread-local pool (reuses >> allocations in the reported counters).
void FrameAllocRelease(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    FrameBuf f = FrameBuf::Allocate(size);
    benchmark::DoNotOptimize(f.data());
  }
  const FramePoolStats stats = GetFramePoolStats();
  state.counters["pool_reuses"] = static_cast<double>(stats.reuses);
  state.counters["pool_allocations"] = static_cast<double>(stats.allocations);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(FrameAllocRelease)->Arg(64)->Arg(1514);

// Ref-counted clone vs deep copy of an MTU-sized frame.
void FrameRefShare(benchmark::State& state) {
  FrameBuf f = FrameBuf::Copy(RandomBytes(1514, 3));
  for (auto _ : state) {
    FrameBuf view = f.SubSpan(14, 1500);
    benchmark::DoNotOptimize(view.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(FrameRefShare);

void FrameDeepClone(benchmark::State& state) {
  FrameBuf f = FrameBuf::Copy(RandomBytes(1514, 4));
  for (auto _ : state) {
    FrameBuf copy = f.Clone();
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(FrameDeepClone);

// --- per-packet fast path ---------------------------------------------------

FrameBuf MakeRoceFrame(size_t payload_bytes, uint64_t seed) {
  RocePacket pkt;
  pkt.src_ip = 0x0A000001;
  pkt.dst_ip = 0x0A000002;
  pkt.bth.opcode = IbOpcode::kWriteOnly;
  pkt.bth.dest_qp = 1;
  pkt.bth.psn = 7;
  RethHeader reth;
  reth.virt_addr = 0x1000;
  reth.dma_length = static_cast<uint32_t>(payload_bytes);
  pkt.reth = reth;
  pkt.payload = FrameBuf::Copy(RandomBytes(payload_bytes, seed));
  return EncodeRoceFrame(MacAddr{0, 0, 0, 0, 0, 1}, MacAddr{0, 0, 0, 0, 0, 2}, pkt);
}

// RX parse when the TX-encoded memo is still attached: the ICRC recompute and
// header decode collapse to a trailer compare. This is the per-packet cost
// every forwarded/received frame pays on the fast path.
void RoceParseIcrcCacheHit(benchmark::State& state) {
  const FrameBuf frame = MakeRoceFrame(static_cast<size_t>(state.range(0)), 5);
  for (auto _ : state) {
    Result<RocePacket> pkt = ParseRoceFrame(frame);
    benchmark::DoNotOptimize(pkt->payload.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(RoceParseIcrcCacheHit)->Arg(64)->Arg(1440)->Arg(4096);

// Same parse from cold wire bytes (memo dropped): full header decode + ICRC
// recompute, the path corrupted or externally sourced frames take.
void RoceParseHeaderDecode(benchmark::State& state) {
  const FrameBuf encoded = MakeRoceFrame(static_cast<size_t>(state.range(0)), 6);
  // Deep-copy to a frame that never had a memo committed.
  const FrameBuf frame = encoded.Clone();
  for (auto _ : state) {
    Result<RocePacket> pkt = ParseRoceFrame(frame);
    benchmark::DoNotOptimize(pkt->payload.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(RoceParseHeaderDecode)->Arg(64)->Arg(1440)->Arg(4096);

// HostMemory read paths: the span visitor (in-place, allocation-free) against
// the copying Read into a caller buffer, and the word fast path poll loops
// spin on.
void HostMemoryVisitRead(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  HostMemory mem;
  const PhysAddr addr = mem.AllocPage();
  mem.Fill(addr, len, 0xA5);
  uint64_t sink = 0;
  for (auto _ : state) {
    mem.VisitRead(addr, len, [&sink](size_t, ByteSpan span) {
      sink += span.size() + span[0];
    });
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(HostMemoryVisitRead)->Arg(4096)->Arg(65536);

void HostMemoryReadCopy(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  HostMemory mem;
  const PhysAddr addr = mem.AllocPage();
  mem.Fill(addr, len, 0xA5);
  ByteBuffer buf(len);
  for (auto _ : state) {
    mem.Read(addr, MutableByteSpan(buf.data(), buf.size()));
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(HostMemoryReadCopy)->Arg(4096)->Arg(65536);

// --- conservative-parallel core ---------------------------------------------

// Cross-LP channel cost per frame handoff: batch-push {when, callback} items
// (what Link::Deliver does inside a window), then drain them in push order
// (what the scheduler does at the barrier). The vector keeps its capacity
// across epochs, so steady state is append + indexed walk, no allocation.
void SpscChannelPushDrain(benchmark::State& state) {
  Simulator dst;
  SpscChannel ch(&dst);
  uint64_t sink = 0;
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      ch.Push(1000 + i, [&sink] { ++sink; });
    }
    ch.Drain([](SpscChannel::Item& item) { item.fn(); });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(SpscChannelPushDrain)->Arg(16)->Arg(256);

// Barrier-epoch protocol overhead: two LPs, each re-arming exactly one event
// per lookahead window, so every epoch executes two near-trivial events and
// the measured time is almost entirely the window algebra plus (at threads
// > 1) the epoch mutex/condvar handoff. items processed = windows.
void LpBarrierEpochOverhead(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr SimTime kLookahead = 100'000;  // 100 ns in ps
  constexpr int kWindowsPerIter = 64;
  // Sims must outlive the scheduler (its destructor joins the workers while
  // the LPs are still alive), so declare them first.
  Simulator a;
  Simulator b;
  LpScheduler sched(threads);
  sched.AddLp(&a);
  sched.AddLp(&b);
  sched.NoteLinkLookahead(kLookahead);
  // One counter per LP: each is written only by its owning worker.
  uint64_t ticks_a = 0;
  uint64_t ticks_b = 0;
  std::function<void()> tick_a = [&] {
    ++ticks_a;
    a.Schedule(kLookahead, [&] { tick_a(); });
  };
  std::function<void()> tick_b = [&] {
    ++ticks_b;
    b.Schedule(kLookahead, [&] { tick_b(); });
  };
  a.Schedule(kLookahead, [&] { tick_a(); });
  b.Schedule(kLookahead, [&] { tick_b(); });
  for (auto _ : state) {
    sched.RunFor(&a, kLookahead * kWindowsPerIter);
  }
  benchmark::DoNotOptimize(ticks_a);
  benchmark::DoNotOptimize(ticks_b);
  state.counters["windows"] = static_cast<double>(sched.windows_executed());
  state.counters["parallel_windows"] = static_cast<double>(sched.parallel_windows());
  state.SetItemsProcessed(state.iterations() * kWindowsPerIter);
}
BENCHMARK(LpBarrierEpochOverhead)->Arg(1)->Arg(2)->Arg(4);

void HostMemoryReadU64Poll(benchmark::State& state) {
  HostMemory mem;
  const PhysAddr addr = mem.AllocPage();
  mem.WriteU64(addr + 128, 42);
  uint64_t sink = 0;
  for (auto _ : state) {
    sink += mem.ReadU64(addr + 128);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(HostMemoryReadU64Poll);

}  // namespace
}  // namespace strom
