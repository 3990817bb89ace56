// Shared main for every bench binary. google/benchmark's BENCHMARK_MAIN
// rejects flags it does not know, so the observability flags (--out,
// --record, --audit, --fault-plan, --paranoid) and --jobs are stripped here
// before Initialize sees argv.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  strom::bench::InitBenchTelemetry(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return strom::bench::ExportBenchTelemetry();
}
