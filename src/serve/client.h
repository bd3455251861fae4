// Synchronous client for the unicleand wire protocol (serve/wire.h), the
// clnt.c counterpart to serve/server.h. One Client wraps one connection.
//
// Two usage styles:
//
//  * Blocking calls — Ping/Clean/Delta/Stats/Reload/CloseSession each send
//    a request and read frames until its terminal reply, collecting
//    streamed journal/data chunks along the way.
//
//  * Pipelined calls — SendClean/SendReload return immediately with the
//    request's tag; AwaitClean/AwaitReload later read to that tag's
//    terminal frame. Replies for other outstanding tags that arrive in
//    between are buffered, so requests can overlap on one connection (how
//    serve_test exercises RELOAD against in-flight CLEANs).
//
// A Client is NOT thread-safe: one thread drives it. For concurrent
// traffic, open one Client per thread (connections are cheap; tracked
// sessions are per-connection server-side).
//
// Overload behaviour: when the daemon refuses a request with kUnavailable
// (bounded queue / per-ruleset cap), Clean() and Delta() retry with capped
// exponential backoff — deterministic given RetryPolicy::jitter_seed — and
// honour the server's retry-after-ms hint as a floor. Only kUnavailable
// retries: by contract the daemon rejected before doing any work, so the
// retry cannot double-apply anything. Per-request deadlines ride the frame
// header (deadline_ms); Cancel(tag) abandons an in-flight pipelined call.

#ifndef UNICLEAN_SERVE_CLIENT_H_
#define UNICLEAN_SERVE_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/relation.h"
#include "serve/stats.h"
#include "serve/wire.h"

namespace uniclean {
namespace serve {

/// A batch-clean request. `data_csv` / `confidence_csv` are full CSV
/// documents (header row included); an empty confidence CSV means uniform
/// 0.0 confidence.
struct CleanRequest {
  std::string ruleset;  // "" = the daemon's sole ruleset
  std::string data_csv;
  std::string confidence_csv;
  /// Keep the session alive server-side for follow-up DELTAs.
  bool track = false;
  /// Also stream back the repaired relation as CSV.
  bool want_data = false;
  /// Relative deadline for this request, enforced server-side (covers queue
  /// wait + execution). 0 = the client default, else the server default.
  uint32_t deadline_ms = 0;
};

struct CleanReply {
  /// Tracked session id (0 if track was false).
  uint64_t session_id = 0;
  uint32_t total_fixes = 0;
  uint32_t journal_entries = 0;
  /// "cRepair=12 eRepair=3 hRepair=0"-style per-phase fix counts.
  std::string phase_summary;
  /// The fix journal CSV — byte-identical to FixJournal::WriteCsv of an
  /// in-process Session::Run on the same inputs.
  std::string journal_csv;
  /// The repaired relation CSV (empty unless want_data).
  std::string data_csv;
};

/// An incremental edit batch against a tracked session. `updates_csv`
/// holds header-less rows index-aligned with `update_ids`.
struct DeltaRequest {
  uint64_t session_id = 0;
  std::string inserts_csv;  // header row + inserted tuples ("" = none)
  std::vector<data::TupleId> update_ids;
  std::string updates_csv;  // header-less rows, one per update id
  std::vector<data::TupleId> delete_ids;
  /// Relative deadline for this request (see CleanRequest::deadline_ms).
  uint32_t deadline_ms = 0;
};

struct DeltaReply {
  uint32_t generation = 0;
  uint32_t affected = 0;
  uint32_t refinement_rounds = 0;
  uint32_t total_fixes = 0;
  /// Ids minted for the inserts, index-matched to the request.
  std::vector<data::TupleId> inserted_ids;
  /// The covering canonical journal CSV — byte-identical to
  /// Session::CanonicalJournal().WriteCsv after the same in-process edits.
  std::string journal_csv;
};

/// Backoff schedule for kUnavailable rejections. Attempt n waits a
/// uniformly jittered value in [backoff/2, backoff] where backoff =
/// min(base_backoff_ms << n, max_backoff_ms), raised to the server's
/// retry-after hint when that is larger. The jitter is a pure function of
/// (jitter_seed, attempt), so tests are reproducible.
struct RetryPolicy {
  /// Additional attempts after the first (0 = fail fast, the old
  /// behaviour).
  int max_retries = 0;
  uint32_t base_backoff_ms = 50;
  uint32_t max_backoff_ms = 2000;
  uint64_t jitter_seed = 1;
};

/// The decoded kPong trailer: instantaneous load plus per-ruleset engine
/// fingerprints (what the cluster prober and rolling reload read).
struct PingInfo {
  uint32_t inflight = 0;
  uint32_t queued = 0;
  /// (ruleset name, engine fingerprint), in the daemon's configured order.
  std::vector<std::pair<std::string, uint64_t>> rulesets;
};

class Client {
 public:
  static Result<Client> Connect(const std::string& host, int port);
  /// Connects by address string: "unix:PATH" or "host:port".
  static Result<Client> ConnectAddress(const std::string& address);

  /// An unconnected client; every call fails until one is move-assigned.
  Client() = default;
  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Round-trips an opaque payload through kPing/kPong; PingEx's result
  /// without the trailer.
  Status Ping();
  /// Ping, returning the daemon's load + fingerprint trailer. A pong whose
  /// trailer is short or over-long is Corruption.
  Result<PingInfo> PingEx();
  Result<CleanReply> Clean(const CleanRequest& request);
  Result<DeltaReply> Delta(const DeltaRequest& request);
  /// The daemon's STATS, decoded (StatsJson() renders the JSON document).
  /// A reply this build cannot decode fails as Corruption.
  Result<StatsSnapshot> Stats();
  /// Hot-reloads the named ruleset ("" = all). Returns the daemon's
  /// per-ruleset fingerprint report.
  Result<std::string> Reload(const std::string& ruleset = "");
  Status CloseSession(uint64_t session_id);
  /// Asks the daemon to abandon the in-flight request sent under `tag` on
  /// this connection (pipelined calls). Returns once the daemon
  /// acknowledges; the cancelled request's Await then fails kCancelled.
  /// Benign if the target already finished.
  Status Cancel(uint32_t tag);

  /// Retry/backoff for kUnavailable rejections (default: no retries).
  void set_retry_policy(RetryPolicy policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }
  /// Deadline applied to requests whose own deadline_ms is 0.
  void set_default_deadline_ms(uint32_t ms) { default_deadline_ms_ = ms; }
  /// The retry-after-ms hint from the most recent kError reply (0 if none
  /// was hinted). Tests assert the overload contract through this.
  uint32_t last_retry_after_ms() const { return last_retry_after_ms_; }
  /// Rejections absorbed by retries across this client's lifetime.
  uint64_t retries_performed() const { return retries_performed_; }
  /// Caps how long any single socket read/write may block (SO_RCVTIMEO /
  /// SO_SNDTIMEO); a stalled peer then surfaces as a transport error
  /// instead of hanging the caller. 0 = block forever (the default). The
  /// health prober runs its probes under this.
  Status SetIoTimeoutMs(int ms);
  /// The wait before retry `attempt` (0-based) under the current policy — a
  /// pure function of (jitter_seed, attempt, last retry-after hint), public
  /// so tests can pin the schedule --retry-seed replays.
  uint32_t BackoffMs(int attempt) const;

  // --- pipelined variants ---------------------------------------------------
  /// Sends without waiting; pass the returned tag to the Await call.
  Result<uint32_t> SendClean(const CleanRequest& request);
  Result<uint32_t> SendReload(const std::string& ruleset);
  Result<CleanReply> AwaitClean(uint32_t tag);
  Result<std::string> AwaitReload(uint32_t tag);

  bool connected() const { return channel_ != nullptr; }
  /// The raw socket (tests use it to simulate abrupt disconnects and
  /// hand-craft malformed frames).
  int fd() const { return channel_ ? channel_->fd() : -1; }
  /// Drops the connection (server reclaims any tracked sessions).
  void Close() { channel_.reset(); }

 private:
  explicit Client(std::unique_ptr<FrameChannel> channel)
      : channel_(std::move(channel)) {}

  Status Send(uint32_t tag, Op op, std::string_view body,
              uint32_t deadline_ms = 0);
  /// Reads until a frame for `tag` arrives, buffering other tags' frames.
  Result<Frame> ReadFor(uint32_t tag);
  Result<Frame> ReadTerminal(uint32_t tag, Op expect, std::string* journal,
                             std::string* data);
  Result<DeltaReply> AwaitDelta(uint32_t tag);
  /// Sleeps BackoffMs(attempt) if another retry is allowed; false = budget
  /// exhausted, surface the rejection.
  bool MaybeBackoff(int attempt);

  std::unique_ptr<FrameChannel> channel_;
  uint32_t next_tag_ = 1;
  /// Frames received for tags other than the one currently awaited.
  std::map<uint32_t, std::vector<Frame>> pending_;
  RetryPolicy retry_policy_;
  uint32_t default_deadline_ms_ = 0;
  uint32_t last_retry_after_ms_ = 0;
  uint64_t retries_performed_ = 0;
};

}  // namespace serve
}  // namespace uniclean

#endif  // UNICLEAN_SERVE_CLIENT_H_
