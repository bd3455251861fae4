// perfbench: the repository benchmark binary. Runs one named workload with a
// seed for a fixed window and prints a run header, every metric with its
// unit, and, as the last line, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set (the window is then split: an untraced half, whose median
// latency anchors trace.overhead_pct, and a traced half). A per-layer metric
// of a layer the workload does not reach reads -1. The process exits 1 when
// an operation failed or a correctness gate tripped, 2 when set-up failed
// and 3 when the build is not one to measure.
//
// Usage (normally via perfbench/run.py, which builds this binary):
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--git-rev REV]

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/run.py checks the printed names).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"peak_rss_mb", "MiB"},
    {"repair_f1", "ratio"},
    {"match_f1", "ratio"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"data.read_csv_ms", "ms"},
    {"data.pool_interned", "count"},
    {"engine.build_ms", "ms"},
    {"match.index_build_ms", "ms"},
    {"match.memo_hits", "count"},
    {"match.memo_misses", "count"},
    {"match.memo_hit_ratio", "ratio"},
    {"match.memo_bytes", "bytes"},
    {"phase.crepair_ms", "ms"},
    {"phase.erepair_ms", "ms"},
    {"phase.hrepair_ms", "ms"},
    {"session.run_ms", "ms"},
    {"session.other_ms", "ms"},
    {"phase.crepair_fixes", "count"},
    {"phase.erepair_fixes", "count"},
    {"phase.hrepair_fixes", "count"},
    {"journal.encode_ms", "ms"},
    {"journal.bytes", "bytes"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p90", "ms"},
    {"serve.run_ms_p50", "ms"},
    {"serve.run_ms_p90", "ms"},
    {"serve.wire_ms_p50", "ms"},
    {"serve.worker_busy_ratio", "ratio"},
    {"serve.bytes_in_per_op", "bytes"},
    {"serve.bytes_out_per_op", "bytes"},
    {"serve.rejected", "count"},
    {"serve.protocol_errors", "count"},
    {"delta.affected_per_edit", "tuples"},
    {"delta.rounds_mean", "count"},
    {"delta.run_ms_k1_p50", "ms"},
    {"delta.run_ms_k16_p50", "ms"},
    {"snapshot.load_ms", "ms"},
    {"snapshot.bytes", "bytes"},
    {"trace.overhead_pct", "%"},
    {"trace.span_coverage", "ratio"},
};

const char* kUsage =
    "usage: perfbench --workload batch_cold|serve_clean|serve_delta "
    "--seed N --seconds S --trace 0|1 --work-dir DIR [--git-rev REV]\n";

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr, "perfbench: %s\n%s", problem.c_str(), kUsage);
  std::exit(2);
}

/// Refuses to report from a build whose timings would not describe the
/// optimized program.
void CheckBuild() {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if (asserts || PERFBENCH_SANITIZED || build_type == "Debug" ||
      build_type.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a '%s' build%s%s; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str(), asserts ? " with assertions" : "",
                 PERFBENCH_SANITIZED ? " with sanitizers" : "");
    std::exit(3);
  }
}

int UsableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Options options;
  std::string git_rev = "unknown";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
      if (trace < 0) Usage("--trace takes 0 or 1");
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--git-rev") {
      git_rev = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (options.workload.empty() || trace < 0 || options.work_dir.empty() ||
      !(options.seconds > 0)) {
    Usage("--workload, --seconds, --trace and --work-dir are required");
  }
  options.trace = trace == 1;
  CheckBuild();

  const int cores = UsableCores();
  options.workers = cores < 2 ? 1 : 2;
  RunResult (*run)(const Options&) = nullptr;
  if (options.workload == "batch_cold") {
    run = RunBatchCold;
    options.clients = 1;
  } else if (options.workload == "serve_clean") {
    run = RunServeClean;
    options.clients = options.workers + 1;
  } else if (options.workload == "serve_delta") {
    run = RunServeDelta;
    options.clients = 1;
  } else {
    Usage("unknown workload '" + options.workload + "'");
  }

  std::printf(
      "# perfbench workload=%s seed=%llu seconds=%g trace=%d build=%s "
      "compiler=\"%s\" git=%s nproc=%d clients=%d workers=%d\n",
      options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds, trace,
      PERFBENCH_BUILD_TYPE, Compiler().c_str(), git_rev.c_str(), cores,
      options.clients, options.workload == "batch_cold" ? 0 : options.workers);
  std::fflush(stdout);

  RunResult result = run(options);

  const std::vector<MetricSpec>& specs = options.trace ? kPerLayer : kEndToEnd;
  std::string json_metrics;
  for (const MetricSpec& spec : specs) {
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      if (!options.trace) Die(std::string("metric not measured: ") + spec.name);
      // A layer this workload does not reach: reported, never as 0.
      result.Set(spec.name, -1.0, spec.unit);
      it = result.metrics.find(spec.name);
      std::printf("%-28s %14s %s (not exercised by %s)\n", spec.name, "-1",
                  spec.unit, options.workload.c_str());
    } else {
      if (it->second.unit != spec.unit) {
        Die(std::string("unit mismatch for ") + spec.name);
      }
      std::printf("%-28s %14.6g %s\n", spec.name, it->second.value,
                  spec.unit);
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second.value);
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += std::string("\"") + spec.name + "\": {\"value\": " +
                    value + ", \"unit\": \"" + spec.unit + "\"}";
  }
  const double error_rate =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  std::printf("%-28s %14.6g ratio (%lld failed of %lld attempted)\n",
              "error_rate", error_rate, static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));
  const bool correct =
      result.correct && result.failed == 0 && result.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), json_metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
