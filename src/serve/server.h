// unicleand's serving core: a long-lived daemon holding one warm
// shared_ptr<CleanEngine> per configured ruleset, a TCP acceptor, one
// frame-reader thread per connection and a shared worker pool the decoded
// requests fan out over (the bazil/tra srv.c + work.c shape). Highlights:
//
//  * Engine registry & hot reload — every request resolves its ruleset to a
//    shared_ptr<CleanEngine> copy, so a RELOAD (which rebuilds the engine
//    from the configured CSV/rule files, warms it up, then atomically swaps
//    the pointer) never disturbs in-flight requests: they finish on the old
//    engine, which dies with its last reference. A failed rebuild leaves
//    the old engine serving.
//
//  * Tracked sessions — a CLEAN with the kCleanTrack flag keeps the
//    Session (and the cleaned relation it borrows) alive in a
//    per-connection registry and returns its id; DELTA requests stream
//    edits into it via Session::ApplyDelta. Sessions die with an explicit
//    CLOSE_SESSION or with their connection — a client that disconnects
//    mid-stream leaks nothing. A connection closes once every request it
//    sent is answered, so a client may half-close after its last request
//    and still read the replies.
//
//  * Hardened ingestion — wire bodies decode through BodyReader and
//    client CSV through data/csv.h, the one CSV reader the CLI and the
//    master load use too (cells interned by StringPool::TryIntern), so a
//    malformed, oversized or pool-exhausting request yields a kError
//    response (or a connection close for unframeable garbage), never a
//    CHECK-abort of the daemon.
//
//  * Overload control — the work queue is bounded (DaemonOptions::
//    max_queue) and each ruleset caps its concurrently running CLEANs and
//    DELTAs (max_inflight_per_ruleset); a request over the queue bound is
//    refused *immediately* on the reader thread, one over the ruleset cap
//    as soon as a worker picks it up, both with kUnavailable plus a
//    retry-after-ms hint, so overload degrades into fast rejections
//    instead of unbounded queue growth. Every admitted request carries a
//    common::CancelToken armed from its wire deadline (or the
//    request_timeout_ms default); the repair engines poll it between
//    committed fixes, so an expired or CANCELled request unwinds with
//    kDeadlineExceeded / kCancelled and zero partial fixes. The CANCEL
//    opcode is handled on the reader thread — it reaches a request even
//    when every worker is busy.
//
//  * Observability — per-opcode request/error/rejected/cancelled/
//    deadline-exceeded counters and microsecond LatencyHistograms
//    (common/latency_histogram.h), engine MemoStats, fingerprints and
//    reload counts, StringPool occupancy; Stats() reads them into one
//    typed StatsSnapshot (serve/stats.h), which STATS sends in binary and
//    from which the STATS JSON document and the shutdown summary are
//    rendered. Optional per-request JSON log (request_log_path).
//
// Shutdown() is a graceful drain: stop accepting, EOF every reader, finish
// the queued work, then join — except that after drain_grace_ms every
// still-running request's token is cancelled, so a wedged request cannot
// hold the drain hostage. The unicleand binary wires SIGTERM to it.

#ifndef UNICLEAN_SERVE_SERVER_H_
#define UNICLEAN_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/latency_histogram.h"
#include "common/result.h"
#include "serve/stats.h"
#include "serve/wire.h"
#include "uniclean/engine.h"

namespace uniclean {
namespace serve {

/// One served ruleset: the file inputs and thresholds an engine is built
/// (and rebuilt, on RELOAD) from.
struct RulesetConfig {
  std::string name = "default";
  /// Master relation CSV (header row names the attributes).
  std::string master_csv;
  /// Rule program file (rules/parser.h syntax).
  std::string rules_file;
  /// CSV whose header row declares the data schema the rules parse against
  /// (the dirty data itself, or a header-only file).
  std::string schema_csv;
  double eta = 0.8;
  int delta1 = 5;
  double delta2 = 0.8;
  /// Per-memo-map resident entry cap (0 = unbounded) — the long-lived
  /// serving knob.
  int memo_cap = 0;
  bool run_crepair = true;
  bool run_erepair = true;
  bool run_hrepair = true;
};

struct DaemonOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is Daemon::port() after Start().
  int port = 0;
  /// When non-empty, overrides host/port: "unix:PATH" listens on an AF_UNIX
  /// stream socket at PATH (unlinked on Shutdown). Filesystem permissions
  /// on the path are the access control — the pre-TLS story for exposing a
  /// daemon beyond loopback, and what the same-host cluster tests use to
  /// dodge port allocation races. port() stays 0 in this mode.
  std::string listen;
  int n_workers = 4;
  /// Byte size of streamed kJournalChunk / kDataChunk frames.
  size_t chunk_size = 64 * 1024;
  /// Build the match environments at Start() instead of on first request.
  bool warmup = true;
  /// Work-queue bound (admission control): a request arriving while this
  /// many are already queued is refused immediately with kUnavailable plus
  /// a retry-after-ms hint instead of queueing unboundedly. 0 = unbounded
  /// (the pre-admission-control behaviour).
  int max_queue = 0;
  /// Per-ruleset cap on concurrently *running* requests that clean: CLEANs,
  /// and DELTAs on the tracked sessions the ruleset's CLEANs opened (each
  /// DELTA re-cleans its whole tracked relation). One hot ruleset cannot
  /// occupy every worker. Excess requests get kUnavailable + retry-after.
  /// 0 = uncapped.
  int max_inflight_per_ruleset = 0;
  /// Default per-request deadline, applied when the request frame's
  /// deadline_ms field is 0. Enforced cooperatively: the repair engines
  /// poll the deadline between committed fixes and unwind with
  /// kDeadlineExceeded. 0 = no default (requests without an explicit
  /// deadline never expire).
  int request_timeout_ms = 0;
  /// Graceful-shutdown drain budget: after this long, still-running
  /// requests have their cancel tokens tripped ("daemon shutting down") and
  /// the drain completes as they unwind. <= 0 = wait forever (the
  /// pre-cancellation behaviour).
  int drain_grace_ms = 5000;
  /// When non-empty, one JSON line per request (opcode, ruleset, tag, bytes
  /// in/out, queue-wait us, run us, status) is appended here, line-buffered.
  std::string request_log_path;
  /// When non-empty, engine snapshots (src/snapshot/) live here as
  /// <name>.ucsnap, one per ruleset. Start() warm-starts each engine from
  /// its snapshot when the fingerprint matches (falling back to a cold
  /// build on any mismatch or corruption, never failing startup because of
  /// a bad snapshot) and writes a fresh snapshot after every cold build,
  /// after every successful RELOAD, and at graceful Shutdown() — the last
  /// one with the memo contents the process earned while serving, so a
  /// replacement starts with the previous process's hit rates. Implies
  /// warmup: an engine must be warm to be persisted.
  std::string snapshot_dir;
};

class Daemon {
 public:
  Daemon(DaemonOptions options, std::vector<RulesetConfig> rulesets);
  /// Stops every thread; equivalent to Shutdown() if still running.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Builds every ruleset's engine, binds the listen socket and spawns the
  /// acceptor + worker threads. Fails (InvalidArgument / NotFound / ...)
  /// without leaving threads behind.
  Status Start();

  /// The bound TCP port (valid after a successful Start(); 0 in unix-socket
  /// mode).
  int port() const { return port_; }

  /// The connectable address: "unix:PATH" or "host:port".
  std::string address() const;

  /// Graceful drain: stop accepting, EOF every connection's reader, finish
  /// all queued and in-flight requests, join every thread, release every
  /// session. Idempotent; also invoked by the destructor.
  void Shutdown();

  /// What STATS serves: every counter and histogram, each read once. Safe
  /// while requests are running.
  StatsSnapshot Stats() const;

  /// StatsJson(Stats()): the STATS JSON document.
  std::string StatsJson() const;

  /// StatsSummary(Stats()): the per-opcode summary for the shutdown log.
  std::string SummaryText() const;

  // --- metrics accessors ----------------------------------------------------
  /// Frames that failed protocol decoding (bad header, garbage opcode,
  /// malformed body).
  uint64_t protocol_errors() const { return protocol_errors_.load(); }
  /// Requests refused at admission (full queue / per-ruleset cap), i.e.
  /// answered kUnavailable without any work.
  uint64_t requests_rejected() const { return rejected_total_.load(); }

  /// Test-only fault injection: when set (before Start), handlers invoke the
  /// hook at named points ("clean.before_run", "delta.before_apply") with
  /// the request's cancel token. A hook that blocks models a stalled
  /// worker — it should poll the token and return its status once tripped; a
  /// non-OK return is reported as that request's failure.
  using FaultHook =
      std::function<Status(std::string_view point, const common::CancelToken*)>;
  void SetFaultHookForTest(FaultHook hook) { fault_hook_ = std::move(hook); }

 private:
  struct ServeSession;
  struct Conn;
  struct EngineEntry;
  struct Work;

  // Acceptor / reader / worker loops.
  void AcceptLoop();
  void ReadLoop(std::shared_ptr<Conn> conn);
  void WorkerLoop();

  // Request handlers (run on worker threads; CANCEL runs on the reader).
  void Dispatch(Work& work);
  Status HandleClean(Work& work);
  Status HandleDelta(Work& work);
  Status HandleStats(Work& work);
  Status HandleReload(Work& work);
  Status HandleCloseSession(Work& work);
  void HandleCancelInline(Conn& conn, const Frame& frame);

  /// Streams `text` as chunked frames of `op` under the request's tag.
  Status StreamChunks(Work& work, Op op, const std::string& text);
  /// Records the request's latency sample, once. Runs before the request's
  /// final frame is written, so a client that holds the reply and asks for
  /// STATS next always finds the request in the histogram.
  void RecordLatency(Work& work);
  /// Records the latency sample, then writes the request's final frame.
  Status WriteFinalFrame(Work& work, Op op, std::string_view body);
  /// `retry_after_ms` rides the kError trailer (0 = no hint).
  Status WriteError(Conn& conn, uint32_t tag, const Status& error,
                    uint32_t retry_after_ms = 0);

  // Admission / cancellation plumbing.
  std::shared_ptr<common::CancelToken> MakeToken(uint32_t deadline_ms);
  void RegisterToken(uint64_t conn_id, uint32_t tag,
                     std::shared_ptr<common::CancelToken> token);
  void UnregisterToken(uint64_t conn_id, uint32_t tag);
  /// Backoff hint for kUnavailable: roughly one median CLEAN, clamped.
  uint32_t RetryAfterMsHint() const;
  void LogRequest(const Work& work, uint64_t run_us, const Status& status);

  /// Resolves a ruleset by name ("" = the sole configured one).
  Result<EngineEntry*> FindRuleset(const std::string& name);
  /// Builds a fresh engine from `cfg` (reload path re-reads the files).
  /// With a non-empty `snapshot_path`, tries EngineBuilder::FromSnapshot
  /// first and falls back to the cold build on any snapshot failure (the
  /// fallback reason is logged; a missing file is the normal first start).
  static Result<std::shared_ptr<CleanEngine>> BuildEngine(
      const RulesetConfig& cfg, bool warmup,
      const std::string& snapshot_path = {});
  /// <snapshot_dir>/<name>.ucsnap, or "" when snapshots are disabled.
  std::string SnapshotPath(const RulesetConfig& cfg) const;
  /// Persists `engine` to the ruleset's snapshot path (no-op when
  /// disabled); failures are logged, never fatal — a serving daemon must
  /// not die because a snapshot write failed.
  void MaybeWriteSnapshot(const RulesetConfig& cfg, const CleanEngine& engine);

  DaemonOptions options_;
  std::vector<std::unique_ptr<EngineEntry>> engines_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  // Reader bookkeeping: readers register themselves so Shutdown can EOF
  // them. Reader threads run detached, so a closed connection releases its
  // thread at once; Shutdown waits on readers_cv_ until every reader has
  // left instead of joining them.
  std::mutex conns_mu_;
  std::condition_variable readers_cv_;
  std::unordered_map<uint64_t, std::weak_ptr<Conn>> conns_;
  int live_readers_ = 0;  // guarded by conns_mu_
  uint64_t next_conn_id_ = 1;

  // Work queue (readers produce, workers consume).
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable drained_cv_;
  std::deque<Work> queue_;
  int in_flight_ = 0;
  bool stop_workers_ = false;  // guarded by queue_mu_

  // Cancel-token registry, keyed (connection id, request tag). Lives at
  // daemon level — not on the Conn — because a reader unregisters its Conn
  // on exit while its requests may still be in flight, and Shutdown's drain
  // grace must reach every live token.
  std::mutex tokens_mu_;
  std::map<std::pair<uint64_t, uint32_t>,
           std::shared_ptr<common::CancelToken>>
      tokens_;
  void CancelAllTokens(const std::string& reason);

  // Structured request log (--log-requests); null when disabled.
  std::FILE* request_log_ = nullptr;
  std::mutex request_log_mu_;

  FaultHook fault_hook_;

  // Metrics.
  /// The live counterpart of OpStats (serve/stats.h), field for field.
  struct OpMetrics {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> cancelled{0};
    std::atomic<uint64_t> deadline_exceeded{0};
    LatencyHistogram latency_us;
  };
  /// Indexed by opcode; slot 0 is unused.
  OpMetrics op_metrics_[kNumRequestOps + 1];
  std::atomic<uint64_t> conns_accepted_{0};
  std::atomic<uint64_t> conns_open_{0};
  std::atomic<uint64_t> sessions_open_{0};
  std::atomic<uint64_t> sessions_opened_total_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> rejected_total_{0};
  std::atomic<uint64_t> cancelled_total_{0};
  std::atomic<uint64_t> deadline_total_{0};
  std::atomic<uint64_t> next_session_id_{1};
  double start_time_s_ = 0.0;
};

}  // namespace serve
}  // namespace uniclean

#endif  // UNICLEAN_SERVE_SERVER_H_
