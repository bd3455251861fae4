// Shared plumbing of the perfbench workloads: run options, the result every
// workload returns, order statistics, a peak-RSS sampler and the CSV
// renderings of generated relations.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "data/relation.h"

namespace perfbench {

/// Command-line settings of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window (split in two halves with --trace 1:
  /// untraced, then traced).
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the files the daemon builds engines from, the
  /// request log, snapshots and the trace dump.
  std::string work_dir;
  /// Daemon worker threads: 2, never above the core count.
  int workers = 2;
  /// Concurrent client connections (closed loop: one request in flight
  /// each).
  int clients = 1;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `failed` counts failed operations and
/// correctness-gate mismatches alike; `correct` is false when any occurred.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a correctness-gate mismatch (printed to stderr).
  void Mismatch(const std::string& what);
};

/// Seconds on the steady clock.
double NowS();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Samples the resident set size every 10 ms on a background thread, so
/// the reported peak belongs to the measured window rather than to the
/// set-up that preceded it.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling; returns the highest resident set seen, in MiB.
  double StopPeakMb();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<long> peak_kb_{0};
  std::thread thread_;
};

/// Current resident set size in KiB (from /proc/self/statm).
long CurrentRssKb();

/// The relation as a CSV document (header row included).
std::string RelationCsv(const uniclean::data::Relation& relation);
/// The relation's per-cell confidences as a CSV document.
std::string ConfidenceCsv(const uniclean::data::Relation& relation);
/// A relation holding tuples [begin, end) of `relation`.
uniclean::data::Relation Slice(const uniclean::data::Relation& relation,
                               int begin, int end);

/// Writes `text` to `path`; exits with status 2 on failure.
void WriteFileOrDie(const std::string& path, const std::string& text);
/// Prints `message` to stderr and exits with status 2 (set-up failures:
/// the run cannot produce a result).
[[noreturn]] void Die(const std::string& message);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
