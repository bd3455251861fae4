#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "data/csv.h"
#include "data/string_pool.h"
#include "snapshot/snapshot.h"

namespace uniclean {
namespace serve {

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Parses a newline-separated list of non-negative decimal tuple ids
/// (blank lines ignored). Fails with InvalidArgument on anything else.
Result<std::vector<data::TupleId>> ParseIdList(const std::string& text) {
  std::vector<data::TupleId> ids;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    errno = 0;
    char* end = nullptr;
    long v = std::strtol(line.c_str(), &end, 10);
    if (end == line.c_str() || *end != '\0' || errno == ERANGE || v < 0 ||
        v > INT32_MAX) {
      return Status::InvalidArgument("bad tuple id '" + line + "'");
    }
    ids.push_back(static_cast<data::TupleId>(v));
  }
  return ids;
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------------

/// One tracked session and the relation it cleans (the Session borrows the
/// relation, so the daemon owns both with the same lifetime). `mu`
/// serializes DELTA requests — a Session must not run from two threads.
/// `entry` is the ruleset the session was opened on: every DELTA re-cleans
/// the whole relation, so it takes one of that ruleset's in-flight slots as
/// a CLEAN does.
struct Daemon::ServeSession {
  std::unique_ptr<data::Relation> relation;
  Session session;
  EngineEntry* entry = nullptr;
  std::mutex mu;
};

/// One client connection: the framed channel, a write lock serializing
/// response frames from concurrent workers, and the tracked sessions this
/// connection opened (reclaimed with the connection — see ~Conn).
struct Daemon::Conn {
  Conn(Daemon* daemon, int fd, uint64_t id)
      : daemon(daemon), channel(fd), id(id) {}
  ~Conn() {
    daemon->sessions_open_.fetch_sub(sessions.size(),
                                     std::memory_order_relaxed);
    daemon->conns_open_.fetch_sub(1, std::memory_order_relaxed);
  }

  Daemon* daemon;
  FrameChannel channel;
  uint64_t id;
  std::mutex write_mu;
  std::mutex sessions_mu;
  std::unordered_map<uint64_t, std::shared_ptr<ServeSession>> sessions;
};

/// One served ruleset: the rebuild recipe plus the hot-swappable engine.
/// Requests copy the shared_ptr under `mu`; RELOAD builds a replacement
/// from `cfg` and swaps it in — in-flight sessions finish on the old
/// engine, which they keep alive through their own shared_ptr.
struct Daemon::EngineEntry {
  RulesetConfig cfg;
  mutable std::mutex mu;
  std::shared_ptr<CleanEngine> engine;
  std::atomic<uint64_t> reloads{0};
  /// CLEANs and DELTAs currently running against this ruleset (admission
  /// cap).
  std::atomic<int> inflight{0};

  std::shared_ptr<CleanEngine> Get() const {
    std::lock_guard<std::mutex> lock(mu);
    return engine;
  }
};

struct Daemon::Work {
  std::shared_ptr<Conn> conn;
  Frame frame;
  uint64_t enqueue_us = 0;
  /// When the worker picked it up (queue wait = dequeue - enqueue).
  uint64_t dequeue_us = 0;
  /// Armed at admission from the frame's deadline_ms (or the server
  /// default); reachable for CANCEL/shutdown through the token registry.
  std::shared_ptr<common::CancelToken> token;
  /// Filled by handlers that resolve one (request-log field).
  std::string ruleset;
  /// Response bytes written for this request (request-log field).
  uint64_t bytes_out = 0;
  /// Set by RecordLatency: the sample is taken once per request.
  bool latency_recorded = false;
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Daemon::Daemon(DaemonOptions options, std::vector<RulesetConfig> rulesets)
    : options_(std::move(options)) {
  engines_.reserve(rulesets.size());
  for (RulesetConfig& cfg : rulesets) {
    auto entry = std::make_unique<EngineEntry>();
    entry->cfg = std::move(cfg);
    engines_.push_back(std::move(entry));
  }
}

Daemon::~Daemon() { Shutdown(); }

Result<std::shared_ptr<CleanEngine>> Daemon::BuildEngine(
    const RulesetConfig& cfg, bool warmup, const std::string& snapshot_path) {
  if (cfg.master_csv.empty() || cfg.rules_file.empty() ||
      cfg.schema_csv.empty()) {
    return Status::InvalidArgument(
        "ruleset '" + cfg.name +
        "' needs master CSV, rules file and data-schema CSV paths");
  }
  UC_ASSIGN_OR_RETURN(data::SchemaPtr schema,
                      data::InferCsvSchema(cfg.schema_csv, "data"));
  core::MdMatcherOptions matcher;
  matcher.memo_capacity = static_cast<size_t>(cfg.memo_cap);
  const auto configure = [&](EngineBuilder& builder) {
    builder.WithDataSchema(schema)
        .WithMasterCsv(cfg.master_csv)
        .WithRulesFile(cfg.rules_file)
        .WithEta(cfg.eta)
        .WithDelta1(cfg.delta1)
        .WithDelta2(cfg.delta2)
        .WithMatcherOptions(matcher)
        .WithDefaultPhases(cfg.run_crepair, cfg.run_erepair, cfg.run_hrepair);
  };
  if (!snapshot_path.empty()) {
    EngineBuilder from_snapshot;
    configure(from_snapshot);
    Result<std::shared_ptr<CleanEngine>> loaded =
        from_snapshot.FromSnapshot(snapshot_path);
    if (loaded.ok()) return loaded;  // env already warm
    // A bad or stale snapshot must never take the daemon down: report why
    // and cold-build from the primary sources. A missing file is the
    // normal first start and stays quiet.
    if (loaded.status().code() != StatusCode::kNotFound) {
      std::fprintf(stderr,
                   "unicleand: ruleset '%s': snapshot %s rejected (%s); "
                   "cold-building\n",
                   cfg.name.c_str(), snapshot_path.c_str(),
                   loaded.status().ToString().c_str());
    }
  }
  EngineBuilder cold;
  configure(cold);
  UC_ASSIGN_OR_RETURN(std::shared_ptr<CleanEngine> engine, cold.BuildEngine());
  // Reload path: warm the replacement BEFORE the swap, so a hot-reloaded
  // engine never serves its first requests through a cold index build.
  if (warmup) engine->Warmup();
  return engine;
}

std::string Daemon::SnapshotPath(const RulesetConfig& cfg) const {
  if (options_.snapshot_dir.empty()) return {};
  return options_.snapshot_dir + "/" + cfg.name + ".ucsnap";
}

void Daemon::MaybeWriteSnapshot(const RulesetConfig& cfg,
                                const CleanEngine& engine) {
  const std::string path = SnapshotPath(cfg);
  if (path.empty()) return;
  const Status status = snapshot::WriteSnapshot(engine, path);
  if (status.ok()) {
    std::fprintf(stderr, "unicleand: ruleset '%s': snapshot written to %s\n",
                 cfg.name.c_str(), path.c_str());
  } else {
    std::fprintf(stderr,
                 "unicleand: ruleset '%s': snapshot write to %s failed "
                 "(%s)\n",
                 cfg.name.c_str(), path.c_str(), status.ToString().c_str());
  }
}

Status Daemon::Start() {
  if (engines_.empty()) {
    return Status::InvalidArgument("unicleand needs at least one ruleset");
  }
  for (size_t i = 0; i < engines_.size(); ++i) {
    for (size_t j = i + 1; j < engines_.size(); ++j) {
      if (engines_[i]->cfg.name == engines_[j]->cfg.name) {
        return Status::InvalidArgument("duplicate ruleset name '" +
                                       engines_[i]->cfg.name + "'");
      }
    }
    EngineEntry& entry = *engines_[i];
    const double t0 = NowS();
    UC_ASSIGN_OR_RETURN(
        entry.engine,
        BuildEngine(entry.cfg, options_.warmup, SnapshotPath(entry.cfg)));
    const double build_s = NowS() - t0;
    const bool from_snapshot = !entry.engine->snapshot_source().empty();
    std::fprintf(stderr,
                 "unicleand: ruleset '%s' engine ready in %.3fs (%s)\n",
                 entry.cfg.name.c_str(), build_s,
                 from_snapshot
                     ? ("snapshot " + entry.engine->snapshot_source()).c_str()
                     : "cold build");
    // A cold-built engine leaves a snapshot behind for the next start; a
    // snapshot-warmed one already matches the file on disk.
    if (!from_snapshot) MaybeWriteSnapshot(entry.cfg, *entry.engine);
  }
  if (!options_.request_log_path.empty()) {
    request_log_ = std::fopen(options_.request_log_path.c_str(), "a");
    if (request_log_ == nullptr) {
      return Status::InvalidArgument("cannot open request log '" +
                                     options_.request_log_path + "'");
    }
    // Line-buffered: each request's JSON line is visible as soon as it is
    // written, without per-line flush syscall storms.
    std::setvbuf(request_log_, nullptr, _IOLBF, 1 << 16);
  }
  if (options_.listen.rfind("unix:", 0) == 0) {
    UC_ASSIGN_OR_RETURN(listen_fd_, ListenUnix(options_.listen.substr(5)));
    port_ = 0;
  } else if (!options_.listen.empty()) {
    return Status::InvalidArgument("bad listen address (want unix:PATH): " +
                                   options_.listen);
  } else {
    UC_ASSIGN_OR_RETURN(listen_fd_,
                        ListenTcp(options_.host, options_.port, &port_));
  }
  start_time_s_ = NowS();
  running_.store(true);
  stop_workers_ = false;
  acceptor_ = std::thread(&Daemon::AcceptLoop, this);
  const int n = std::max(1, options_.n_workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back(&Daemon::WorkerLoop, this);
  }
  return Status::OK();
}

void Daemon::Shutdown() {
  if (!running_.exchange(false)) return;
  // 1. Stop accepting (the poll loop sees running_ == false).
  if (acceptor_.joinable()) acceptor_.join();
  // 2. EOF every connection's read side so readers stop enqueuing, then
  //    wait for them to leave. In-flight and queued requests are untouched.
  {
    std::unique_lock<std::mutex> lock(conns_mu_);
    for (auto& [id, weak] : conns_) {
      if (std::shared_ptr<Conn> conn = weak.lock()) {
        ::shutdown(conn->channel.fd(), SHUT_RD);
      }
    }
    readers_cv_.wait(lock, [this] { return live_readers_ == 0; });
  }
  // 3. Drain: every queued request is served before the workers stop — but
  //    a request wedged past the grace budget has its token cancelled, so
  //    the engines unwind it cooperatively and the drain still completes.
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    const auto drained = [&] { return queue_.empty() && in_flight_ == 0; };
    if (options_.drain_grace_ms > 0 &&
        !drained_cv_.wait_for(
            lock, std::chrono::milliseconds(options_.drain_grace_ms),
            drained)) {
      lock.unlock();
      CancelAllTokens("daemon shutting down");
      lock.lock();
    }
    drained_cv_.wait(lock, drained);
    stop_workers_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // 4. Release connection handles; sessions die with their Conn.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  // 5. The drain left every engine quiescent; refresh the snapshots so the
  //    memo heat this process earned (match lists and blocking candidates)
  //    survives into the next start. A kill -9 skips this and the
  //    replacement falls back to the build-time snapshot.
  for (const auto& entry : engines_) {
    if (std::shared_ptr<CleanEngine> engine = entry->Get()) {
      MaybeWriteSnapshot(entry->cfg, *engine);
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (options_.listen.rfind("unix:", 0) == 0) {
    ::unlink(options_.listen.substr(5).c_str());
  }
  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    tokens_.clear();
  }
  if (request_log_ != nullptr) {
    std::fclose(request_log_);
    request_log_ = nullptr;
  }
}

std::string Daemon::address() const {
  if (!options_.listen.empty()) return options_.listen;
  return options_.host + ":" + std::to_string(port_);
}

void Daemon::CancelAllTokens(const std::string& reason) {
  std::lock_guard<std::mutex> lock(tokens_mu_);
  for (auto& [key, token] : tokens_) token->Cancel(reason);
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

void Daemon::AcceptLoop() {
  while (running_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int r = ::poll(&pfd, 1, 200);
    if (r <= 0) continue;  // timeout (re-check running_) or EINTR
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // A peer that stops reading must not wedge a worker in send() forever:
    // bound the write side, then treat a timeout as a dead connection.
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    conns_accepted_.fetch_add(1, std::memory_order_relaxed);
    conns_open_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conns_mu_);
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_shared<Conn>(this, fd, id);
    conns_.emplace(id, conn);
    ++live_readers_;
    std::thread(&Daemon::ReadLoop, this, std::move(conn)).detach();
  }
}

void Daemon::ReadLoop(std::shared_ptr<Conn> conn) {
  for (;;) {
    Result<Frame> frame = conn->channel.ReadFrame();
    if (!frame.ok()) {
      // NotFound = clean EOF at a frame boundary; anything else (truncated
      // frame, oversized declared length, transport error) is a protocol
      // error — notify best-effort under tag 0, then drop the connection.
      if (frame.status().code() != StatusCode::kNotFound) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        WriteError(*conn, 0, frame.status());
      }
      break;
    }
    if (!IsRequestOp(static_cast<uint8_t>(frame->op))) {
      // Garbage opcode inside a well-formed frame: framing is still intact,
      // so answer the tag and keep the connection.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      WriteError(*conn, frame->tag,
                 Status::InvalidArgument(
                     "unknown request opcode " +
                     std::to_string(static_cast<uint8_t>(frame->op))));
      continue;
    }
    if (frame->op == Op::kCancel) {
      // Handled right here on the reader thread: CANCEL must reach its
      // target even when the queue is full and every worker is wedged.
      HandleCancelInline(*conn, *frame);
      continue;
    }
    // Admission control. The queue bound is checked under queue_mu_ so the
    // limit is exact; a refused request is answered immediately (with a
    // backoff hint) and costs no worker time and no queue slot.
    Work work;
    work.conn = conn;
    work.frame = std::move(frame).value();
    work.token = MakeToken(work.frame.deadline_ms);
    const int op_index = static_cast<int>(work.frame.op);
    bool admitted = true;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (options_.max_queue > 0 &&
          queue_.size() >= static_cast<size_t>(options_.max_queue)) {
        admitted = false;
      } else {
        work.enqueue_us = NowUs();
        RegisterToken(conn->id, work.frame.tag, work.token);
        queue_.push_back(std::move(work));
      }
    }
    if (!admitted) {
      op_metrics_[op_index].rejected.fetch_add(1, std::memory_order_relaxed);
      rejected_total_.fetch_add(1, std::memory_order_relaxed);
      const Status unavailable = Status::Unavailable(
          "work queue full (" + std::to_string(options_.max_queue) +
          " queued); retry after the hinted backoff");
      LogRequest(work, /*run_us=*/0, unavailable);
      WriteError(*conn, work.frame.tag, unavailable, RetryAfterMsHint());
      continue;
    }
    queue_cv_.notify_one();
  }
  // Requests already admitted keep the connection open until they are
  // answered: a client that half-closes after its last request still reads
  // the replies, and one that closed outright makes their writes fail.
  const uint64_t id = conn->id;
  // Drop the reference before the count falls: ~Conn writes daemon
  // counters, and once live_readers_ reaches 0 Shutdown may return and the
  // daemon be destroyed. For the same reason the notify happens under the
  // lock, and nothing touches `this` after it is released.
  conn.reset();
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(id);
  if (--live_readers_ == 0) readers_cv_.notify_all();
}

void Daemon::WorkerLoop() {
  for (;;) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return stop_workers_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_workers_) return;
        continue;
      }
      work = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    work.dequeue_us = NowUs();
    Dispatch(work);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) drained_cv_.notify_all();
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch & handlers
// ---------------------------------------------------------------------------

void Daemon::Dispatch(Work& work) {
  Conn& conn = *work.conn;
  const int op_index = static_cast<int>(work.frame.op);
  OpMetrics& metrics = op_metrics_[op_index];
  metrics.requests.fetch_add(1, std::memory_order_relaxed);
  Status status = Status::OK();
  if (work.token != nullptr && work.token->IsCancelled()) {
    // Expired (or cancelled) while queued: answer without running the
    // handler — the deadline covers queue wait, not just execution.
    status = work.token->status();
  } else {
    switch (work.frame.op) {
      case Op::kPing: {
        // PONG carries a health/identity trailer behind the echo: load
        // (in-flight + queued) and per-ruleset engine fingerprints. One
        // cheap opcode gives the cluster prober liveness, load and
        // rolling-reload verification in a single round trip.
        std::string body;
        PutLp(&body, work.frame.body);
        uint32_t queued = 0;
        {
          std::lock_guard<std::mutex> lock(queue_mu_);
          queued = static_cast<uint32_t>(queue_.size());
          PutU32(&body, static_cast<uint32_t>(in_flight_));
        }
        PutU32(&body, queued);
        PutU32(&body, static_cast<uint32_t>(engines_.size()));
        for (const auto& entry : engines_) {
          PutLp(&body, entry->cfg.name);
          std::shared_ptr<CleanEngine> engine = entry->Get();
          PutU64(&body, engine != nullptr ? engine->Fingerprint() : 0);
        }
        status = WriteFinalFrame(work, Op::kPong, body);
        break;
      }
      case Op::kClean:
        status = HandleClean(work);
        break;
      case Op::kDelta:
        status = HandleDelta(work);
        break;
      case Op::kStats:
        status = HandleStats(work);
        break;
      case Op::kReload:
        status = HandleReload(work);
        break;
      case Op::kCloseSession:
        status = HandleCloseSession(work);
        break;
      default:
        status = Status::Internal("unreachable: non-request op dispatched");
    }
  }
  if (!status.ok()) {
    metrics.errors.fetch_add(1, std::memory_order_relaxed);
    if (status.code() == StatusCode::kCancelled) {
      metrics.cancelled.fetch_add(1, std::memory_order_relaxed);
      cancelled_total_.fetch_add(1, std::memory_order_relaxed);
    } else if (status.code() == StatusCode::kDeadlineExceeded) {
      metrics.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      deadline_total_.fetch_add(1, std::memory_order_relaxed);
    } else if (status.code() == StatusCode::kUnavailable) {
      // The per-ruleset in-flight cap refuses inside the handler; it is
      // still an admission rejection, not a failure of the work itself.
      metrics.rejected.fetch_add(1, std::memory_order_relaxed);
      rejected_total_.fetch_add(1, std::memory_order_relaxed);
    }
    RecordLatency(work);
    WriteError(conn, work.frame.tag, status,
               status.code() == StatusCode::kUnavailable ? RetryAfterMsHint()
                                                         : 0);
  }
  UnregisterToken(conn.id, work.frame.tag);
  RecordLatency(work);
  LogRequest(work, NowUs() - work.dequeue_us, status);
}

Result<Daemon::EngineEntry*> Daemon::FindRuleset(const std::string& name) {
  if (name.empty()) {
    if (engines_.size() == 1) return engines_.front().get();
    return Status::InvalidArgument(
        "ruleset name required: " + std::to_string(engines_.size()) +
        " rulesets are configured");
  }
  for (const auto& entry : engines_) {
    if (entry->cfg.name == name) return entry.get();
  }
  return Status::NotFound("unknown ruleset '" + name + "'");
}

Status Daemon::StreamChunks(Work& work, Op op, const std::string& text) {
  Conn& conn = *work.conn;
  const size_t chunk = std::max<size_t>(1, options_.chunk_size);
  for (size_t at = 0; at < text.size(); at += chunk) {
    std::string_view piece(text.data() + at,
                           std::min(chunk, text.size() - at));
    std::lock_guard<std::mutex> lock(conn.write_mu);
    UC_RETURN_IF_ERROR(conn.channel.WriteFrame(work.frame.tag, op, piece));
    work.bytes_out += piece.size();
  }
  return Status::OK();
}

void Daemon::RecordLatency(Work& work) {
  if (work.latency_recorded) return;
  work.latency_recorded = true;
  op_metrics_[static_cast<int>(work.frame.op)].latency_us.Record(
      NowUs() - work.enqueue_us);
}

Status Daemon::WriteFinalFrame(Work& work, Op op, std::string_view body) {
  RecordLatency(work);
  work.bytes_out += body.size();
  std::lock_guard<std::mutex> lock(work.conn->write_mu);
  return work.conn->channel.WriteFrame(work.frame.tag, op, body);
}

Status Daemon::WriteError(Conn& conn, uint32_t tag, const Status& error,
                          uint32_t retry_after_ms) {
  std::string body;
  PutU8(&body, WireErrorCode(error));
  PutLp(&body, error.message());
  PutU32(&body, retry_after_ms);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  return conn.channel.WriteFrame(tag, Op::kError, body);
}

namespace {

/// Releases a per-ruleset in-flight slot on every exit path.
struct InflightGuard {
  std::atomic<int>* counter = nullptr;
  ~InflightGuard() {
    if (counter != nullptr) counter->fetch_sub(1, std::memory_order_acq_rel);
  }
};

/// Per-ruleset admission for CLEAN and DELTA: one hot ruleset must not
/// occupy every worker. Takes one of the ruleset's `cap` in-flight slots
/// into `*guard`, or refuses with kUnavailable; cap <= 0 admits everything.
/// fetch_add-then-check keeps the cap exact under concurrent requests.
Status TakeInflightSlot(std::atomic<int>* inflight, int cap,
                        const std::string& ruleset, InflightGuard* guard) {
  if (cap <= 0) return Status::OK();
  if (inflight->fetch_add(1, std::memory_order_acq_rel) >= cap) {
    inflight->fetch_sub(1, std::memory_order_acq_rel);
    return Status::Unavailable("ruleset '" + ruleset +
                               "' is at its in-flight request cap (" +
                               std::to_string(cap) +
                               "); retry after the hinted backoff");
  }
  guard->counter = inflight;
  return Status::OK();
}

}  // namespace

Status Daemon::HandleClean(Work& work) {
  Conn& conn = *work.conn;
  const Frame& frame = work.frame;
  BodyReader body(frame.body);
  UC_ASSIGN_OR_RETURN(uint8_t flags, body.U8());
  UC_ASSIGN_OR_RETURN(std::string ruleset, body.Lp());
  UC_ASSIGN_OR_RETURN(std::string data_csv, body.Lp());
  UC_ASSIGN_OR_RETURN(std::string confidence_csv, body.Lp());

  UC_ASSIGN_OR_RETURN(EngineEntry * entry, FindRuleset(ruleset));
  work.ruleset = entry->cfg.name;
  InflightGuard inflight;
  UC_RETURN_IF_ERROR(TakeInflightSlot(&entry->inflight,
                                      options_.max_inflight_per_ruleset,
                                      entry->cfg.name, &inflight));

  std::shared_ptr<CleanEngine> engine = entry->Get();

  if (fault_hook_) {
    UC_RETURN_IF_ERROR(fault_hook_("clean.before_run", work.token.get()));
  }

  auto session = std::make_shared<ServeSession>();
  session->entry = entry;
  {
    std::istringstream in(data_csv);
    UC_ASSIGN_OR_RETURN(
        data::Relation relation,
        data::ReadCsv(in, engine->rules().data_schema_ptr()));
    session->relation =
        std::make_unique<data::Relation>(std::move(relation));
  }
  if (!confidence_csv.empty()) {
    std::istringstream in(confidence_csv);
    UC_RETURN_IF_ERROR(
        data::ReadConfidenceCsv(in, session->relation.get()));
  }

  const bool track = (flags & kCleanTrack) != 0;
  session->session =
      track ? engine->NewTrackedSession() : engine->NewSession();
  // The token is cleared again right after Run: a tracked session outlives
  // this request, and later DELTAs must not observe a long-tripped token.
  session->session.set_cancel_token(work.token);
  Result<CleanResult> result = session->session.Run(session->relation.get());
  session->session.set_cancel_token(nullptr);
  if (!result.ok()) return result.status();

  std::ostringstream journal_csv;
  UC_RETURN_IF_ERROR(result->journal.WriteCsv(journal_csv));
  UC_RETURN_IF_ERROR(
      StreamChunks(work, Op::kJournalChunk, journal_csv.str()));
  if ((flags & kCleanWantData) != 0) {
    std::ostringstream data_out;
    UC_RETURN_IF_ERROR(data::WriteCsv(data_out, *session->relation));
    UC_RETURN_IF_ERROR(StreamChunks(work, Op::kDataChunk, data_out.str()));
  }

  uint64_t session_id = 0;
  if (track) {
    std::lock_guard<std::mutex> lock(conn.sessions_mu);
    session_id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
    conn.sessions.emplace(session_id, std::move(session));
    sessions_open_.fetch_add(1, std::memory_order_relaxed);
    sessions_opened_total_.fetch_add(1, std::memory_order_relaxed);
  }

  std::string summary;
  for (const PhaseStats& stats : result->phases) {
    if (!summary.empty()) summary += ' ';
    summary += stats.phase + "=" + std::to_string(stats.fixes);
  }
  std::string done;
  PutU64(&done, session_id);
  PutU32(&done, static_cast<uint32_t>(result->total_fixes()));
  PutU32(&done, static_cast<uint32_t>(result->journal.size()));
  PutLp(&done, summary);
  return WriteFinalFrame(work, Op::kCleanDone, done);
}

Status Daemon::HandleDelta(Work& work) {
  Conn& conn = *work.conn;
  const Frame& frame = work.frame;
  BodyReader body(frame.body);
  UC_ASSIGN_OR_RETURN(uint64_t session_id, body.U64());
  UC_ASSIGN_OR_RETURN(std::string inserts_csv, body.Lp());
  UC_ASSIGN_OR_RETURN(std::string update_ids_text, body.Lp());
  UC_ASSIGN_OR_RETURN(std::string updates_csv, body.Lp());
  UC_ASSIGN_OR_RETURN(std::string delete_ids_text, body.Lp());

  std::shared_ptr<ServeSession> session;
  {
    std::lock_guard<std::mutex> lock(conn.sessions_mu);
    auto it = conn.sessions.find(session_id);
    if (it == conn.sessions.end()) {
      return Status::NotFound("unknown session id " +
                              std::to_string(session_id) +
                              " (tracked sessions live with their "
                              "connection; CLEAN with the track flag first)");
    }
    session = it->second;
  }
  // Every DELTA re-cleans the whole tracked relation, so it counts against
  // the ruleset's in-flight cap like a CLEAN. As for a CLEAN, the slot is
  // taken before the body is parsed, so a refused DELTA did no work; and
  // before the session lock, so a refusal answers at once instead of after
  // another DELTA of this session.
  InflightGuard inflight;
  UC_RETURN_IF_ERROR(TakeInflightSlot(&session->entry->inflight,
                                      options_.max_inflight_per_ruleset,
                                      session->entry->cfg.name, &inflight));
  const data::Schema& schema = session->relation->schema();

  Delta delta;
  if (!inserts_csv.empty()) {
    std::istringstream in(inserts_csv);
    UC_ASSIGN_OR_RETURN(delta.inserts,
                        data::ReadCsvRows(in, schema, /*header=*/true));
  }
  UC_ASSIGN_OR_RETURN(std::vector<data::TupleId> update_ids,
                      ParseIdList(update_ids_text));
  std::vector<data::Tuple> update_rows;
  if (!updates_csv.empty()) {
    std::istringstream in(updates_csv);
    UC_ASSIGN_OR_RETURN(update_rows,
                        data::ReadCsvRows(in, schema, /*header=*/false));
  }
  if (update_ids.size() != update_rows.size()) {
    return Status::InvalidArgument(
        "DELTA: " + std::to_string(update_ids.size()) + " update ids but " +
        std::to_string(update_rows.size()) + " update rows");
  }
  for (size_t i = 0; i < update_ids.size(); ++i) {
    delta.updates.emplace_back(update_ids[i], std::move(update_rows[i]));
  }
  UC_ASSIGN_OR_RETURN(delta.deletes, ParseIdList(delete_ids_text));

  // One DELTA at a time per session (Session is single-threaded); DELTAs to
  // different sessions proceed in parallel on other workers.
  std::lock_guard<std::mutex> session_lock(session->mu);
  if (fault_hook_) {
    UC_RETURN_IF_ERROR(fault_hook_("delta.before_apply", work.token.get()));
  }
  // Token cleared right after: the session outlives this request.
  session->session.set_cancel_token(work.token);
  Result<DeltaResult> dr = session->session.ApplyDelta(delta);
  session->session.set_cancel_token(nullptr);
  if (!dr.ok()) return dr.status();

  // The canonical journal is the covering, batch-equivalent view — what the
  // CLI writes after --delta, and the byte-identity anchor for clients.
  std::ostringstream journal_csv;
  UC_RETURN_IF_ERROR(
      session->session.CanonicalJournal().WriteCsv(journal_csv));
  UC_RETURN_IF_ERROR(
      StreamChunks(work, Op::kJournalChunk, journal_csv.str()));

  std::string inserted_ids;
  for (data::TupleId t : dr->inserted_ids) {
    inserted_ids += std::to_string(t);
    inserted_ids += '\n';
  }
  std::string done;
  PutU32(&done, static_cast<uint32_t>(dr->generation));
  PutU32(&done, static_cast<uint32_t>(dr->affected));
  PutU32(&done, static_cast<uint32_t>(dr->refinement_rounds));
  PutU32(&done, static_cast<uint32_t>(dr->total_fixes()));
  PutLp(&done, inserted_ids);
  return WriteFinalFrame(work, Op::kDeltaDone, done);
}

Status Daemon::HandleStats(Work& work) {
  return WriteFinalFrame(work, Op::kStatsReply, EncodeStats(Stats()));
}

Status Daemon::HandleReload(Work& work) {
  const Frame& frame = work.frame;
  BodyReader body(frame.body);
  UC_ASSIGN_OR_RETURN(std::string name, body.Lp());
  std::vector<EngineEntry*> targets;
  if (name.empty()) {
    for (const auto& entry : engines_) targets.push_back(entry.get());
  } else {
    UC_ASSIGN_OR_RETURN(EngineEntry * entry, FindRuleset(name));
    targets.push_back(entry);
  }
  std::string message;
  for (EngineEntry* entry : targets) {
    // Build + warm the replacement before touching the served pointer: a
    // failed rebuild (missing file, bad rules) leaves the old engine up.
    UC_ASSIGN_OR_RETURN(std::shared_ptr<CleanEngine> rebuilt,
                        BuildEngine(entry->cfg, /*warmup=*/true));
    const uint64_t new_fp = rebuilt->Fingerprint();
    uint64_t old_fp = 0;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      old_fp = entry->engine->Fingerprint();
      entry->engine = std::move(rebuilt);
    }
    entry->reloads.fetch_add(1, std::memory_order_relaxed);
    // The reload deliberately did NOT consult the snapshot (its point is
    // re-reading the source files); the freshly built engine now overwrites
    // it so the next start warm-starts from the reloaded state.
    MaybeWriteSnapshot(entry->cfg, *entry->Get());
    if (!message.empty()) message += '\n';
    message += entry->cfg.name + ": fingerprint " + FingerprintHex(old_fp) +
               " -> " + FingerprintHex(new_fp) +
               (old_fp == new_fp ? " (unchanged)" : " (changed)");
  }
  std::string ok_body;
  PutLp(&ok_body, message);
  return WriteFinalFrame(work, Op::kOk, ok_body);
}

Status Daemon::HandleCloseSession(Work& work) {
  Conn& conn = *work.conn;
  const Frame& frame = work.frame;
  BodyReader body(frame.body);
  UC_ASSIGN_OR_RETURN(uint64_t session_id, body.U64());
  {
    std::lock_guard<std::mutex> lock(conn.sessions_mu);
    if (conn.sessions.erase(session_id) == 0) {
      return Status::NotFound("unknown session id " +
                              std::to_string(session_id));
    }
  }
  sessions_open_.fetch_sub(1, std::memory_order_relaxed);
  std::string ok_body;
  PutLp(&ok_body, "session " + std::to_string(session_id) + " closed");
  return WriteFinalFrame(work, Op::kOk, ok_body);
}

void Daemon::HandleCancelInline(Conn& conn, const Frame& frame) {
  OpMetrics& metrics = op_metrics_[static_cast<int>(Op::kCancel)];
  metrics.requests.fetch_add(1, std::memory_order_relaxed);
  const uint64_t t0 = NowUs();
  BodyReader body(frame.body);
  Result<uint32_t> target = body.U32();
  if (!target.ok()) {
    metrics.errors.fetch_add(1, std::memory_order_relaxed);
    metrics.latency_us.Record(NowUs() - t0);
    WriteError(conn, frame.tag, target.status());
    return;
  }
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    auto it = tokens_.find({conn.id, target.value()});
    if (it != tokens_.end()) {
      it->second->Cancel("cancelled by client");
      found = true;
    }
  }
  // kOk either way: cancelling a request that already finished is a benign
  // race, not an error the client can act on.
  std::string ok_body;
  PutLp(&ok_body, "tag " + std::to_string(target.value()) +
                      (found ? " cancelled" : " not in flight"));
  metrics.latency_us.Record(NowUs() - t0);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (!conn.channel.WriteFrame(frame.tag, Op::kOk, ok_body).ok()) {
    metrics.errors.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Admission / cancellation plumbing
// ---------------------------------------------------------------------------

std::shared_ptr<common::CancelToken> Daemon::MakeToken(uint32_t deadline_ms) {
  const int64_t ms = deadline_ms != 0
                         ? static_cast<int64_t>(deadline_ms)
                         : static_cast<int64_t>(options_.request_timeout_ms);
  if (ms > 0) return common::CancelToken::WithTimeout(ms);
  return std::make_shared<common::CancelToken>();
}

void Daemon::RegisterToken(uint64_t conn_id, uint32_t tag,
                           std::shared_ptr<common::CancelToken> token) {
  std::lock_guard<std::mutex> lock(tokens_mu_);
  // A tag reused while its predecessor is in flight simply replaces the
  // registry entry; CANCEL then reaches the newer request, which is what
  // the client meant by reusing the tag.
  tokens_[{conn_id, tag}] = std::move(token);
}

void Daemon::UnregisterToken(uint64_t conn_id, uint32_t tag) {
  std::lock_guard<std::mutex> lock(tokens_mu_);
  tokens_.erase({conn_id, tag});
}

uint32_t Daemon::RetryAfterMsHint() const {
  // Roughly one median CLEAN of breathing room. With no samples yet (cold
  // daemon under instant overload) suggest a conservative 50 ms.
  const double p50_us =
      op_metrics_[static_cast<int>(Op::kClean)].latency_us.p50();
  if (p50_us <= 0) return 50;
  const double ms = p50_us / 1000.0;
  if (ms < 10) return 10;
  if (ms > 2000) return 2000;
  return static_cast<uint32_t>(ms);
}

void Daemon::LogRequest(const Work& work, uint64_t run_us,
                        const Status& status) {
  if (request_log_ == nullptr) return;
  const uint64_t queue_wait_us = work.dequeue_us > work.enqueue_us
                                     ? work.dequeue_us - work.enqueue_us
                                     : 0;
  std::string line = "{\"op\": \"";
  line += OpName(work.frame.op);
  line += "\", \"ruleset\": \"" + JsonEscape(work.ruleset) + "\"";
  line += ", \"tag\": " + std::to_string(work.frame.tag);
  line += ", \"bytes_in\": " + std::to_string(work.frame.body.size());
  line += ", \"bytes_out\": " + std::to_string(work.bytes_out);
  line += ", \"queue_wait_us\": " + std::to_string(queue_wait_us);
  line += ", \"run_us\": " + std::to_string(run_us);
  line += ", \"status\": \"";
  line += StatusCodeToString(status.code());
  line += "\"}\n";
  std::lock_guard<std::mutex> lock(request_log_mu_);
  std::fputs(line.c_str(), request_log_);
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

StatsSnapshot Daemon::Stats() const {
  StatsSnapshot stats;
  stats.uptime_s = running_.load() ? NowS() - start_time_s_ : 0.0;
  stats.connections_live = conns_open_.load();
  stats.connections_accepted = conns_accepted_.load();
  stats.sessions_live = sessions_open_.load();
  stats.sessions_opened = sessions_opened_total_.load();
  stats.protocol_errors = protocol_errors_.load();
  stats.rejected = rejected_total_.load();
  stats.cancelled = cancelled_total_.load();
  stats.deadline_exceeded = deadline_total_.load();
  for (int i = 0; i < kNumRequestOps; ++i) {
    const OpMetrics& m = op_metrics_[i + 1];
    OpStats& op = stats.requests.ops[i];
    op.count = m.requests.load();
    op.errors = m.errors.load();
    op.rejected = m.rejected.load();
    op.cancelled = m.cancelled.load();
    op.deadline_exceeded = m.deadline_exceeded.load();
    op.hist = m.latency_us.Encode();
  }
  for (const auto& entry : engines_) {
    RulesetStats r;
    r.name = entry->cfg.name;
    r.reloads = entry->reloads.load();
    if (std::shared_ptr<CleanEngine> engine = entry->Get()) {
      r.fingerprint = engine->Fingerprint();
      r.master_tuples = engine->master().size();
      r.cfds = engine->rules().cfds().size();
      r.mds = engine->rules().mds().size();
      r.snapshot_source = engine->snapshot_source();
      r.snapshot_load_s = engine->snapshot_load_seconds();
      r.memo = engine->MemoStats();
    }
    stats.rulesets.push_back(std::move(r));
  }
  stats.string_pool = data::StringPool::Global().Stats();
  return stats;
}

std::string Daemon::StatsJson() const { return serve::StatsJson(Stats()); }

std::string Daemon::SummaryText() const { return StatsSummary(Stats()); }

}  // namespace serve
}  // namespace uniclean
