// STATS: the typed snapshot of one unicleand's serving metrics, its binary
// codec (the kStatsReply body, laid out in serve/wire.h) and the only
// renderers of it — the STATS JSON document and the shutdown summary.
// Daemon::Stats() fills the struct; serve::Client::Stats(), the daemon's
// own StatsJson() / SummaryText() and the cluster client all render it.
// Latency histograms travel as LatencyHistogram::Encode() tokens, so an
// OpStats is a plain value that merges exactly.

#ifndef UNICLEAN_SERVE_STATS_H_
#define UNICLEAN_SERVE_STATS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/sharded_memo.h"
#include "data/string_pool.h"
#include "serve/wire.h"

namespace uniclean {
namespace serve {

/// The kStatsReply body version. Client and daemon must come from the same
/// build: any other version decodes as Corruption, with no fallback.
constexpr uint8_t kStatsVersion = 1;

/// Request opcodes kPing..kCancel: the ones STATS reports per opcode.
constexpr int kNumRequestOps = static_cast<int>(Op::kCancel);

/// One request opcode's counters and latency distribution.
struct OpStats {
  /// Dispatched to a worker (rejected requests never count here).
  uint64_t count = 0;
  uint64_t errors = 0;
  /// Refused at admission with kUnavailable (full queue / ruleset cap).
  uint64_t rejected = 0;
  /// Unwound with kCancelled (CANCEL opcode, client gone, or shutdown).
  uint64_t cancelled = 0;
  uint64_t deadline_exceeded = 0;
  /// LatencyHistogram::Encode() token of the request latencies in
  /// microseconds ("" = no observations).
  std::string hist;

  /// Sums the counters and merges the histograms bucket-wise: the merged
  /// percentiles are exactly what one histogram fed both streams reports.
  void Merge(const OpStats& other);
};

/// OpStats for every request opcode, indexed by the opcode itself.
struct RequestStats {
  OpStats ops[kNumRequestOps];

  /// `op` must be a request opcode (kPing..kCancel).
  OpStats& operator[](Op op) { return ops[static_cast<int>(op) - 1]; }
  const OpStats& operator[](Op op) const {
    return ops[static_cast<int>(op) - 1];
  }
};

/// One served ruleset's engine.
struct RulesetStats {
  std::string name;
  uint64_t fingerprint = 0;
  uint64_t reloads = 0;
  uint64_t master_tuples = 0;
  uint64_t cfds = 0;
  uint64_t mds = 0;
  /// The snapshot file the engine warm-started from ("" = cold build).
  std::string snapshot_source;
  double snapshot_load_s = 0.0;
  core::MemoStats memo;
};

/// Everything STATS reports about one daemon.
struct StatsSnapshot {
  double uptime_s = 0.0;
  uint64_t connections_live = 0;
  uint64_t connections_accepted = 0;
  uint64_t sessions_live = 0;
  uint64_t sessions_opened = 0;
  /// Frames that failed protocol decoding.
  uint64_t protocol_errors = 0;
  /// The daemon-wide overload rollup of the per-opcode counters.
  uint64_t rejected = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_exceeded = 0;
  RequestStats requests;
  /// In the daemon's configured order.
  std::vector<RulesetStats> rulesets;
  data::StringPoolStats string_pool;
};

/// The kStatsReply body.
std::string EncodeStats(const StatsSnapshot& stats);

/// Decodes a kStatsReply body from a peer. Never aborts and never
/// allocates from a declared count: another version, truncation, a
/// malformed histogram token, a non-finite number or trailing bytes fail
/// as Corruption.
Result<StatsSnapshot> DecodeStats(const std::string& body);

/// The STATS JSON document (newline-terminated).
std::string StatsJson(const StatsSnapshot& stats);

/// The human-readable per-opcode summary unicleand logs at shutdown.
std::string StatsSummary(const StatsSnapshot& stats);

/// Appends the `  "requests": {...},` member (one line per opcode) that
/// both the daemon's and the cluster's STATS documents carry.
void AppendRequestsJson(const RequestStats& requests, std::string* out);

/// Escapes `s` for the inside of a JSON string literal.
std::string JsonEscape(std::string_view s);

/// An engine fingerprint as 16 lower-case hex digits.
std::string FingerprintHex(uint64_t fp);

}  // namespace serve
}  // namespace uniclean

#endif  // UNICLEAN_SERVE_STATS_H_
