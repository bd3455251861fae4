// Pieces the two serving workloads share: writing the ruleset files an
// in-process serve::Daemon builds its engine from, the reference engine the
// correctness gates compare against, daemon start-up, the request-log join
// behind the serve.* per-layer metrics, and the STATS fields they read.

#ifndef PERFBENCH_SERVE_UTIL_H_
#define PERFBENCH_SERVE_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gen/dataset.h"
#include "serve/client.h"
#include "serve/server.h"
#include "uniclean/uniclean.h"
#include "util.h"

namespace perfbench {

/// The ruleset files on disk plus the data schema the daemon infers from
/// them (the gates parse request CSV against the same schema).
struct ServeInputs {
  uniclean::serve::RulesetConfig ruleset;
  uniclean::data::SchemaPtr schema;
  std::string snapshot_dir;
};

/// Writes master, rules and a header-only schema CSV under
/// options.work_dir; the ruleset runs with eta = 1.0.
ServeInputs WriteServeInputs(const Options& options,
                             const uniclean::gen::Dataset& ds);

/// An in-process engine configured exactly like the daemon's.
std::shared_ptr<uniclean::CleanEngine> BuildReferenceEngine(
    const ServeInputs& in);

/// Starts a daemon with `workers` workers on an ephemeral loopback port,
/// warm-starting from in.snapshot_dir; `request_log` may be empty. Returns
/// the Start() wall time in *start_s. Exits on failure.
std::unique_ptr<uniclean::serve::Daemon> StartDaemon(
    const ServeInputs& in, int workers, const std::string& request_log,
    double* start_s);

uniclean::serve::Client ConnectOrDie(const uniclean::serve::Daemon& daemon);

/// One CLEAN or DELTA as the client saw it.
struct OpRecord {
  uint32_t tag = 0;
  /// Frame body size, as the daemon's request log counts it.
  uint64_t bytes_in = 0;
  /// When the client sent the request (NowS()) and how long the reply took.
  double start_s = 0.0;
  double rtt_ms = 0.0;
  /// DELTA edit count (0 for CLEAN).
  int k = 0;
  int affected = 0;
  int rounds = 0;
};

/// The measured window of a serving workload.
struct ServeWindow {
  std::vector<OpRecord> records;  // successful, gated requests
  double start_s = 0.0;
  double elapsed_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// Client round trips of the window's requests, in ms.
std::vector<double> RoundTrips(const ServeWindow& w);

/// Completed requests per second, as the median over `slices` equal time
/// slices of the window; a request counts in each slice by the share of its
/// round trip that falls there. A stall of a few seconds on a shared host
/// then moves one slice rather than the whole figure.
double SliceThroughput(const ServeWindow& w, int slices);

/// Sets the end-to-end metrics of an untraced window; `setups` holds the
/// repeated set-up times.
void ReportServeEndToEnd(const std::vector<double>& setups,
                         const ServeWindow& w, double repair_f1,
                         double match_f1, RunResult* r);

/// Body size of the CLEAN / DELTA frames serve::Client sends.
uint64_t CleanBytesIn(const uniclean::serve::CleanRequest& request);
uint64_t DeltaBytesIn(const uniclean::serve::DeltaRequest& request);

/// One line of the daemon's request log.
struct LogLine {
  std::string op;
  uint32_t tag = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  std::string status;
};

/// Reads the request log once it holds at least `expect` lines (the daemon
/// logs a request just after answering it). Exits after 10 s of waiting.
std::vector<LogLine> ReadRequestLog(const std::string& path, size_t expect);

/// A client record and the log line of the same request.
struct Joined {
  OpRecord record;
  LogLine line;
};

/// Pairs records with `op` log lines on (tag, bytes_in). Requests of
/// different connections share tags; two such requests that also carry
/// identical bodies are interchangeable, so pairing them either way is
/// equivalent. Exits when a record finds no line.
std::vector<Joined> JoinLog(const std::vector<OpRecord>& records,
                            const std::vector<LogLine>& lines,
                            const std::string& op);

/// Engine counters read from the daemon's STATS document (first ruleset).
struct EngineCounters {
  double memo_hits = 0.0;
  double memo_misses = 0.0;
  double memo_bytes = 0.0;
  double snapshot_load_s = 0.0;
};
EngineCounters ReadEngineCounters(const uniclean::serve::Daemon& daemon);

/// Sets the serve.*, match.memo_* and data.pool_interned per-layer metrics
/// of a traced window of `window_s` seconds.
void ReportServeLayers(const std::vector<Joined>& joined, double window_s,
                       int workers, const EngineCounters& before,
                       const EngineCounters& after, double pool_growth,
                       const uniclean::serve::Daemon& daemon, RunResult* r);

/// Sums "cRepair=12 eRepair=3 hRepair=0"-style summaries into *fixes
/// (indexed c, e, h).
void AddPhaseSummary(const std::string& summary, double fixes[3]);

/// Size of the ruleset's snapshot file in bytes.
double SnapshotBytes(const ServeInputs& in);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_UTIL_H_
