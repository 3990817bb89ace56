// Microbenchmarks for the simulator's own hot paths (not simulated
// behaviour): event-queue push/pop, CRC32/CRC64 bulk throughput, pooled
// frame allocation/cloning, and RoCE frame encode/parse. These are the paths
// the slab-pooled frame buffers, calendar event queue and slice-by-8 CRC
// tables optimize. perfbench/run.py measures the simulator end to end.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/crc.h"
#include "src/common/frame_buf.h"
#include "src/common/rng.h"
#include "src/pcie/host_memory.h"
#include "src/proto/packet.h"
#include "src/sim/event_queue.h"
#include "src/testbed/workload.h"

namespace strom {
namespace {

// Push/pop through a queue that stays ~1k events deep, timestamps striding
// like a busy link's serialization events. Every deadline falls within 0.2 ns
// of the last pop, so in one calendar bucket: this is the case the 8-entry
// spill to the overflow heap keeps fast.
void EventQueuePushPop(benchmark::State& state) {
  EventQueue q;
  SimTime now = 0;
  uint64_t sink = 0;
  for (int i = 0; i < 1000; ++i) {
    q.Push(now + 100 + (i % 7) * 13, [&sink] { ++sink; });
  }
  for (auto _ : state) {
    const EventQueue::Event ev = q.Pop();
    now = ev.when;
    q.Run(ev);
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
      q.Run(q.Pop());
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(EventQueueSameTimestampBurst);

// Retransmission-timer churn: a population of timers parked ~100 us out
// (far future relative to the ~100 ns between arms) that are re-armed and
// cancelled long before they fire — the pattern every ACKed QP produces.
// 100 us is past the calendar window, so each re-arm is an O(log n)
// remove+insert in the 1k-deep overflow heap.
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

// rack_incast's event mix, counted per push on seed 1: twelve fixed delays
// from 38.4 ns to 1.28 µs carry 98% of its one-shots (weights below are the
// counts in units of ~40,000), one push in 17 also re-arms a retransmit timer
// 100 µs out, and about 120 one-shots are pending. Each iteration pops, runs
// and pushes one event.
void EventCoreRackMix(benchmark::State& state) {
  struct Delay {
    SimTime ps;
    int weight;
  };
  static constexpr Delay kMix[] = {
      {600'000, 6},   {716'800, 6}, {294'400, 6}, {168'800, 6}, {588'000, 5}, {1'280'000, 3},
      {580'000, 3},   {488'000, 3}, {460'800, 3}, {68'800, 3},  {38'400, 3},  {250'000, 3}};
  std::vector<SimTime> delays;
  for (const Delay& d : kMix) {
    delays.insert(delays.end(), d.weight, d.ps);
  }
  Rng rng(1);
  for (size_t i = delays.size() - 1; i > 0; --i) {  // interleave the delays
    std::swap(delays[i], delays[rng.Below(i + 1)]);
  }
  constexpr int kPending = 120;
  constexpr int kRetransTimers = 64;
  constexpr SimTime kRto = 100'000'000;  // 100 us in ps

  EventQueue q;
  uint64_t sink = 0;
  std::vector<EventQueue::TimerId> timers;
  for (int i = 0; i < kRetransTimers; ++i) {
    timers.push_back(q.CreateTimer([&sink] { ++sink; }));
    q.ArmTimer(timers.back(), kRto);
  }
  size_t next = 0;
  for (int i = 0; i < kPending; ++i) {
    q.Push(delays[next++ % delays.size()], [&sink] { ++sink; });
  }
  uint64_t iter = 0;
  for (auto _ : state) {
    const EventQueue::Event ev = q.Pop();
    q.Run(ev);
    q.Push(ev.when + delays[next++ % delays.size()], [&sink] { ++sink; });
    if (++iter % 17 == 0) {
      q.ArmTimer(timers[(iter / 17) % kRetransTimers], ev.when + kRto);
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(EventCoreRackMix);

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

// TX encode: one pooled block of the wire size, every header written in one
// pass, the ICRC computed and the memo committed. Arg(0) is an ACK (AETH, no
// payload); the other args are WRITE_ONLY frames carrying that many bytes.
void RoceEncode(benchmark::State& state) {
  const size_t payload_bytes = static_cast<size_t>(state.range(0));
  RocePacket pkt;
  pkt.src_ip = 0x0A000001;
  pkt.dst_ip = 0x0A000002;
  pkt.bth.dest_qp = 1;
  pkt.bth.psn = 7;
  if (payload_bytes == 0) {
    pkt.bth.opcode = IbOpcode::kAck;
    pkt.aeth = AethHeader{AckSyndrome::kAck, 3};
  } else {
    pkt.bth.opcode = IbOpcode::kWriteOnly;
    pkt.reth = RethHeader{0x1000, 0, static_cast<uint32_t>(payload_bytes)};
    pkt.payload = FrameBuf::Copy(RandomBytes(payload_bytes, 7));
  }
  const MacAddr src{0, 0, 0, 0, 0, 1};
  const MacAddr dst{0, 0, 0, 0, 0, 2};
  for (auto _ : state) {
    const FrameBuf frame = EncodeRoceFrame(src, dst, pkt);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(RoceEncode)->Arg(0)->Arg(64)->Arg(1440);

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
