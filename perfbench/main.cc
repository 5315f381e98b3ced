// flockbench: runs one workload of the query-flocks benchmark and prints
// a provenance line and, as the last line of stdout, the result object
// {"correct", "attempted", "failed", "metrics"}.
//
//   flockbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --work-dir <dir> [--trace-dir <dir>] [--tiny]
//              [--corrupt-oracle]
//
// Exit status: 0 when every statement succeeded with the oracle's answer,
// 1 when any failed or disagreed (the result is still printed), 2 on a
// usage, build-type or set-up error (nothing is printed on stdout).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

// Timing numbers from debug or sanitizer builds mean nothing.
bool OptimizedBuild() {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return false;
#else
  const std::string type = QF_BENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#endif
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "flockbench: %s\nusage: flockbench --workload "
               "fig2_mine|stream_served "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--trace-dir DIR] [--tiny] [--corrupt-oracle]\n",
               why);
  return 2;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  qfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--trace-dir") {
      options.trace_dir = value();
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--corrupt-oracle") {
      options.corrupt_oracle = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!OptimizedBuild()) {
    return Usage("refusing to measure a debug or sanitizer build");
  }
  if (options.seconds < 1 || options.work_dir.empty()) {
    return Usage("--seconds must be >= 1 and --work-dir is required");
  }
  if (options.trace_dir.empty()) options.trace_dir = options.work_dir;

  qfbench::Outcome outcome;
  try {
    std::filesystem::create_directories(options.work_dir);
    if (options.workload == "fig2_mine") {
      qfbench::RunFig2Mine(options, &outcome);
    } else if (options.workload == "stream_served") {
      qfbench::RunStreamServed(options, &outcome);
    } else {
      return Usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flockbench: %s\n", e.what());
    return 2;
  }

  for (const qfbench::Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "flockbench: metric %s is not finite\n",
                   m.name.c_str());
      return 2;
    }
  }
  const qfbench::Tally& tally = outcome.tally;
  for (const std::string& error : tally.errors) {
    std::fprintf(stderr, "flockbench: failed: %s\n", error.c_str());
  }
  std::string provenance = "{\"provenance\":{";
  bool first = true;
  for (const auto& [key, json] : outcome.provenance) {
    if (!first) provenance += ",";
    first = false;
    provenance += qfbench::JsonString(key) + ":" + json;
  }
  provenance += ",\"wrong_answers\":" + std::to_string(tally.wrong) + "}}";

  // Every wrong answer is also counted as a failed statement.
  const bool correct = tally.failed == 0;
  std::string result = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(tally.attempted) +
                       ", \"failed\": " + std::to_string(tally.failed) +
                       ", \"metrics\": {";
  first = true;
  for (const qfbench::Metric& m : outcome.metrics) {
    if (!first) result += ", ";
    first = false;
    result += qfbench::JsonString(m.name) + ": {\"value\": " + Number(m.value) +
              ", \"unit\": " + qfbench::JsonString(m.unit) + "}";
  }
  result += "}}";
  std::cout << provenance << "\n" << result << std::endl;
  return correct ? 0 : 1;
}
