// Figure 12 (a/b/c): latency, throughput, and message rate of the 100 G
// StRoM NIC (UltraScale+ profile: 64 B data path at 322 MHz, PCIe Gen3 x16).
// Versus 10 G: lower and flatter latency (faster clock + fewer
// store-and-forward words), 10x bandwidth, higher message-rate ceiling.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace strom {
namespace {

constexpr int kRounds = 300;

// Every family carries the same counters, 0 where it does not measure the
// quantity: google-benchmark's CSV reporter takes its columns from the first
// run and aborts on a counter a later run adds.
void InitCounters(benchmark::State& state, size_t payload) {
  for (const char* name : {"median_us", "p1_us", "p99_us", "gbps", "ideal_gbps", "mmsg_per_s",
                           "ideal_mmsg_per_s"}) {
    state.counters[name] = 0;
  }
  state.counters["payload_B"] = static_cast<double>(payload);
}

void Fig12aWriteLatency(benchmark::State& state) {
  const size_t payload = static_cast<size_t>(state.range(0));
  InitCounters(state, payload);
  for (auto _ : state) {
    bench::ReportLatency(state, __func__, bench::MeasureWriteLatency(Profile100G(), payload, kRounds),
                         {{"payload_B", static_cast<double>(payload)}});
  }
}
void Fig12aReadLatency(benchmark::State& state) {
  const size_t payload = static_cast<size_t>(state.range(0));
  InitCounters(state, payload);
  for (auto _ : state) {
    bench::ReportLatency(state, __func__, bench::MeasureReadLatency(Profile100G(), payload, kRounds),
                         {{"payload_B", static_cast<double>(payload)}});
  }
}

void Fig12bWriteThroughput(benchmark::State& state) {
  const size_t payload = static_cast<size_t>(state.range(0));
  InitCounters(state, payload);
  for (auto _ : state) {
    bench::Throughput t = bench::MeasureWriteThroughput(
        Profile100G(), payload, bench::MessagesForPayload(payload), /*window=*/128);
    state.counters["gbps"] = t.gbps;
  }
  state.counters["ideal_gbps"] = bench::IdealGoodputGbps(Profile100G(), payload);
}
void Fig12bReadThroughput(benchmark::State& state) {
  const size_t payload = static_cast<size_t>(state.range(0));
  InitCounters(state, payload);
  for (auto _ : state) {
    bench::Throughput t = bench::MeasureReadThroughput(
        Profile100G(), payload, bench::MessagesForPayload(payload), /*window=*/128);
    state.counters["gbps"] = t.gbps;
  }
}

void Fig12cWriteMsgRate(benchmark::State& state) {
  const size_t payload = static_cast<size_t>(state.range(0));
  InitCounters(state, payload);
  for (auto _ : state) {
    bench::Throughput t =
        bench::MeasureWriteThroughput(Profile100G(), payload, 8000, /*window=*/128);
    state.counters["mmsg_per_s"] = t.mmsg_per_sec;
  }
  state.counters["ideal_mmsg_per_s"] = bench::IdealMsgRate(Profile100G(), payload);
}
void Fig12cReadMsgRate(benchmark::State& state) {
  const size_t payload = static_cast<size_t>(state.range(0));
  InitCounters(state, payload);
  for (auto _ : state) {
    bench::Throughput t =
        bench::MeasureReadThroughput(Profile100G(), payload, 8000, /*window=*/128);
    state.counters["mmsg_per_s"] = t.mmsg_per_sec;
  }
}

BENCHMARK(Fig12aWriteLatency)->RangeMultiplier(2)->Range(64, 1024)->Iterations(1);
BENCHMARK(Fig12aReadLatency)->RangeMultiplier(2)->Range(64, 1024)->Iterations(1);
BENCHMARK(Fig12bWriteThroughput)->RangeMultiplier(4)->Range(64, 1 << 20)->Iterations(1);
BENCHMARK(Fig12bReadThroughput)->RangeMultiplier(4)->Range(64, 1 << 20)->Iterations(1);
BENCHMARK(Fig12cWriteMsgRate)->RangeMultiplier(4)->Range(64, 4096)->Iterations(1);
BENCHMARK(Fig12cReadMsgRate)->RangeMultiplier(4)->Range(64, 4096)->Iterations(1);

}  // namespace
}  // namespace strom
