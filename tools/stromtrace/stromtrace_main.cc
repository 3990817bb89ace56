// stromtrace: decode and conformance-check pcapng captures produced by the
// simulator's wire taps (--record=capture on any bench, or
// Testbed::EnableCapture).
//
//   stromtrace [--strict] [--mtu=N] [--timeline] [--faults] [--ecn]
//              [--retry-limit=N] [--quiet] <capture.pcapng>...
//   stromtrace --flows [--quiet] <run.flows.csv>...
//   stromtrace --postmortem [--timeline] [--faults] [--quiet] <bundle-stem>...
//
//   --strict    treat observations (retransmits, NAKs) as errors too; use in
//               CI on captures of clean runs
//   --mtu=N     IP MTU for the MTU-violation check and the read-request PSN
//               span (default 1500)
//   --timeline  print the per-packet PSN timeline of every flow
//   --faults    print a fault/recovery report per flow (retransmit counts,
//               NAKs by syndrome, dropped frames, out-of-order arrivals,
//               retry-exhaustion events); a retry exhaustion makes the exit
//               status non-zero even without --strict
//   --ecn       print a congestion report (ECT/CE marks per flow, BECN echo
//               counts = per-QP rate-limiter events) and verify the ECN
//               feedback loop across ALL given captures: BECN echoes without
//               a delivered CE mark anywhere, or delivered CE marks with no
//               echo, make the exit status non-zero even without --strict
//               (pass every capture of the run so both halves of the loop
//               are visible)
//   --retry-limit=N  retry budget the run was configured with, for the
//               exhaustion check (default 7 = RoceConfig default)
//   --flows     arguments are flows.csv files written by a bench run with
//               --record=flows; print per-QP flow counters and the DCQCN
//               timeline summary (malformed rows are errors)
//   --postmortem  arguments are flight-recorder bundle stems ("<dir>/postmortem"
//               for a bench run with --out): decode "<stem>.flightrec.bin",
//               cross-check it against "<stem>.frames.pcapng", and print the
//               dump reason, per-host event rings, and the QPs the ring
//               localizes the failure to; cross-check failures are errors.
//               With --faults, also print the crash-recovery timelines:
//               crash -> dead-peer detection -> backoff attempts -> lease
//               re-acquire -> first post-restart delivery, each phase with
//               its latency relative to the crash instant
//   --quiet     print nothing; the exit code is the verdict
//
// Exit status: 0 all captures clean, 1 anomalies found, 2 usage or file
// error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tools/stromtrace/inspector.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: stromtrace [--strict] [--mtu=N] [--timeline] [--faults] "
               "[--ecn] [--retry-limit=N] [--quiet] <capture.pcapng>...\n"
               "       stromtrace --flows [--quiet] <run.flows.csv>...\n"
               "       stromtrace --postmortem [--timeline] [--faults] [--quiet] "
               "<bundle-stem>...\n");
  return 2;
}

// stromtrace --flows: pretty-print .flows.csv files. Returns the error count
// (unreadable file = usage error, reported via *usage_error).
size_t RunFlows(const std::vector<std::string>& paths, bool quiet, bool* usage_error) {
  size_t errors = 0;
  for (const std::string& path : paths) {
    strom::Result<strom::FlowCsvReport> report = strom::LoadFlowCsv(path);
    if (!report.ok()) {
      std::fprintf(stderr, "stromtrace: %s: %s\n", path.c_str(),
                   report.status().ToString().c_str());
      *usage_error = true;
      return errors;
    }
    errors += report->malformed_rows;
    if (!quiet) {
      std::printf("== %s ==\n%s", path.c_str(),
                  strom::FormatFlowCsvReport(*report).c_str());
      std::printf("verdict: %s (%zu malformed row%s)\n\n",
                  report->malformed_rows == 0 ? "CLEAN" : "ANOMALOUS",
                  report->malformed_rows, report->malformed_rows == 1 ? "" : "s");
    }
  }
  return errors;
}

// stromtrace --postmortem: decode + cross-check flight-recorder bundles.
// With --faults, append the crash-recovery timelines distilled from the
// rings (crash -> detection -> backoff -> lease re-acquire -> first
// post-restart delivery, with per-phase latencies).
size_t RunPostmortem(const std::vector<std::string>& stems, bool timeline, bool quiet,
                     bool faults, bool* usage_error) {
  size_t errors = 0;
  for (const std::string& stem : stems) {
    strom::Result<strom::PostmortemReport> report = strom::InspectPostmortem(stem);
    if (!report.ok()) {
      std::fprintf(stderr, "stromtrace: %s: %s\n", stem.c_str(),
                   report.status().ToString().c_str());
      *usage_error = true;
      return errors;
    }
    errors += report->inconsistencies.size();
    if (!quiet) {
      std::printf("== %s ==\n%s", stem.c_str(),
                  strom::FormatPostmortemReport(*report, timeline, faults).c_str());
      std::printf("verdict: %s (%zu inconsistenc%s)\n\n",
                  report->inconsistencies.empty() ? "CLEAN" : "ANOMALOUS",
                  report->inconsistencies.size(),
                  report->inconsistencies.size() == 1 ? "y" : "ies");
    }
  }
  return errors;
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  bool timeline = false;
  bool quiet = false;
  bool faults = false;
  bool ecn = false;
  bool flows = false;
  bool postmortem = false;
  uint32_t retry_limit = 7;
  strom::InspectOptions options;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(arg, "--timeline") == 0) {
      timeline = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(arg, "--faults") == 0) {
      faults = true;
    } else if (std::strcmp(arg, "--ecn") == 0) {
      ecn = true;
    } else if (std::strcmp(arg, "--flows") == 0) {
      flows = true;
    } else if (std::strcmp(arg, "--postmortem") == 0) {
      postmortem = true;
    } else if (std::strncmp(arg, "--retry-limit=", 14) == 0) {
      const long limit = std::strtol(arg + 14, nullptr, 10);
      if (limit < 0) {
        std::fprintf(stderr, "stromtrace: bad --retry-limit value: %s\n", arg + 14);
        return 2;
      }
      retry_limit = static_cast<uint32_t>(limit);
    } else if (std::strncmp(arg, "--mtu=", 6) == 0) {
      const long mtu = std::strtol(arg + 6, nullptr, 10);
      if (mtu < 128) {
        std::fprintf(stderr, "stromtrace: bad --mtu value: %s\n", arg + 6);
        return 2;
      }
      options.ip_mtu = static_cast<size_t>(mtu);
    } else if (arg[0] == '-') {
      return Usage();
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.empty() || (flows && postmortem)) {
    return Usage();
  }

  // --flows and --postmortem change what the positional arguments mean, so
  // they are modes, not extra report sections.
  if (flows || postmortem) {
    bool usage_error = false;
    const size_t errors = flows ? RunFlows(paths, quiet, &usage_error)
                                : RunPostmortem(paths, timeline, quiet, faults, &usage_error);
    if (usage_error) {
      return 2;
    }
    return errors == 0 ? 0 : 1;
  }

  size_t total_errors = 0;
  strom::EcnReport ecn_aggregate;
  for (const std::string& path : paths) {
    strom::Result<strom::Report> report = strom::InspectFile(path, options);
    if (!report.ok()) {
      std::fprintf(stderr, "stromtrace: %s: %s\n", path.c_str(),
                   report.status().ToString().c_str());
      return 2;
    }
    size_t errors = report->ErrorCount(strict);
    std::string faults_text;
    if (faults) {
      const strom::FaultsReport fr = strom::BuildFaultsReport(*report, retry_limit);
      faults_text = strom::FormatFaultsReport(fr);
      // Retry exhaustion means a QP died mid-run: always an error for CI.
      errors += fr.exhaustion_events;
    }
    std::string ecn_text;
    if (ecn) {
      const strom::EcnReport er = strom::BuildEcnReport(*report);
      ecn_text = strom::FormatEcnReport(er);
      strom::MergeEcnReport(er, &ecn_aggregate);
    }
    total_errors += errors;
    if (!quiet) {
      std::printf("== %s ==\n%s%s%s", path.c_str(),
                  strom::FormatReport(*report, timeline).c_str(), faults_text.c_str(),
                  ecn_text.c_str());
      std::printf("verdict: %s (%zu error%s%s)\n\n",
                  errors == 0 ? "CLEAN" : "ANOMALOUS", errors, errors == 1 ? "" : "s",
                  strict ? ", strict" : "");
    }
  }
  if (ecn) {
    // The feedback loop is judged on the union of all captures: a broken
    // loop (echoes with no mark anywhere, marks never echoed) is a protocol
    // defect and an error even without --strict.
    strom::CheckEcnFeedback(&ecn_aggregate);
    for (const std::string& msg : ecn_aggregate.inconsistencies) {
      if (!quiet) {
        std::printf("ECN INCONSISTENCY (capture set): %s\n", msg.c_str());
      }
      ++total_errors;
    }
  }
  return total_errors == 0 ? 0 : 1;
}
