// The serving layer (src/serve): wire-protocol parity with the in-process
// Session API (batch journal and DELTA canonical journal byte-identical),
// hot reload against in-flight requests (the acceptance pin), tracked
// session lifecycle (explicit close, reclaim on disconnect), and framing
// robustness — truncated frames, oversized declared lengths, garbage
// opcodes, malformed CSV, mid-stream disconnects — all of which must yield
// a clean error response or connection close, never a daemon crash. Runs
// an in-process Daemon on an ephemeral port; also the ASan/TSan target for
// the serving threads.

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "gen/dataset.h"
#include "serve/client.h"
#include "serve/safe_csv.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "snapshot/snapshot.h"
#include "uniclean/engine.h"
#include "uniclean/session.h"

namespace uniclean {
namespace serve {
namespace {

/// Polls `cond` for up to ~5s (the daemon reclaims sessions on its reader
/// threads, so observers wait instead of racing).
bool Eventually(const std::function<bool()>& cond) {
  for (int i = 0; i < 500; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

/// Shared across the suite: one generated HOSP dataset written to disk, one
/// Daemon serving it, and one in-process reference engine built from the
/// same files. Tests assert daemon counters as deltas, never absolutes.
struct ServeWorld {
  std::string dir;
  std::string dirty_csv;    // the wire payload
  std::string dirty_path;
  std::unique_ptr<Daemon> daemon;
  std::shared_ptr<CleanEngine> reference;
  std::string reference_journal;  // batch journal CSV on dirty_csv

  static ServeWorld* Get() {
    static ServeWorld* world = [] {
      auto* w = new ServeWorld();
      w->Init();
      return w;
    }();
    return world;
  }

  void Init() {
    char tmpl[] = "/tmp/uniclean_serve_test.XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir = tmpl;

    gen::GeneratorConfig config;
    config.num_tuples = 120;
    config.master_size = 60;
    config.noise_rate = 0.08;
    config.dup_rate = 0.4;
    config.asserted_rate = 0.4;
    config.seed = 20260808;
    gen::Dataset ds = gen::GenerateHosp(config);

    dirty_path = dir + "/dirty.csv";
    ASSERT_TRUE(data::WriteCsvFile(dirty_path, ds.dirty).ok());
    ASSERT_TRUE(data::WriteCsvFile(dir + "/master.csv", ds.master).ok());
    std::ofstream rules(dir + "/rules.txt");
    rules << ds.rule_text;
    ASSERT_TRUE(rules.good());
    rules.close();

    std::ifstream in(dirty_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    dirty_csv = buf.str();

    RulesetConfig cfg;
    cfg.name = "hosp";
    cfg.master_csv = dir + "/master.csv";
    cfg.rules_file = dir + "/rules.txt";
    cfg.schema_csv = dirty_path;

    DaemonOptions options;
    options.port = 0;
    options.n_workers = 3;
    options.chunk_size = 1024;  // force multi-chunk streaming
    daemon = std::make_unique<Daemon>(options, std::vector<RulesetConfig>{cfg});
    Status started = daemon->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();

    // The in-process reference: same files, same thresholds.
    auto schema = data::InferCsvSchema(dirty_path, "data");
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    auto engine = EngineBuilder()
                      .WithDataSchema(*schema)
                      .WithMasterCsv(cfg.master_csv)
                      .WithRulesFile(cfg.rules_file)
                      .WithEta(cfg.eta)
                      .WithDelta1(cfg.delta1)
                      .WithDelta2(cfg.delta2)
                      .BuildEngine();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    reference = std::move(engine).value();
    reference_journal = ReferenceBatchJournal();
    ASSERT_FALSE(reference_journal.empty());
  }

  Result<data::Relation> LoadDirty() const {
    return data::ReadCsvFile(dirty_path, reference->rules().data_schema_ptr());
  }

  std::string ReferenceBatchJournal() const {
    auto relation = LoadDirty();
    EXPECT_TRUE(relation.ok()) << relation.status().ToString();
    Session session = reference->NewSession();
    auto result = session.Run(&*relation);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::ostringstream out;
    EXPECT_TRUE(result->journal.WriteCsv(out).ok());
    return out.str();
  }

  Client Connect() const {
    auto client = Client::Connect("127.0.0.1", daemon->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }
};

TEST(ServeTest, PingRoundTrips) {
  ServeWorld* w = ServeWorld::Get();
  Client client = w->Connect();
  EXPECT_TRUE(client.Ping().ok());
}

/// Number of memory mappings of this process (lines of /proc/self/maps).
long MappingCount() {
  std::ifstream maps("/proc/self/maps");
  long count = 0;
  std::string line;
  while (std::getline(maps, line)) ++count;
  return count;
}

TEST(ServeTest, ClosedConnectionsReleaseTheirReaderThreads) {
  // Every connection gets a reader thread. A finished reader that is never
  // reclaimed keeps its stack mapped (two mappings with its guard page), so
  // a daemon serving per-request clients would grow until thread creation
  // fails. Reclaimed stacks are reused, so the count stays flat.
  ServeWorld* w = ServeWorld::Get();
  {
    Client warmup = w->Connect();
    ASSERT_TRUE(warmup.Ping().ok());
  }
  constexpr int kCycles = 500;
  const long before = MappingCount();
  for (int i = 0; i < kCycles; ++i) {
    Client client = w->Connect();
    ASSERT_TRUE(client.Ping().ok()) << "cycle " << i;
    client.Close();
  }
  EXPECT_TRUE(Eventually([&] { return MappingCount() - before < kCycles / 4; }))
      << "mappings grew by " << MappingCount() - before << " over " << kCycles
      << " connections";
}

TEST(ServeTest, BatchJournalByteIdenticalToInProcessRun) {
  ServeWorld* w = ServeWorld::Get();
  Client client = w->Connect();
  CleanRequest request;
  request.data_csv = w->dirty_csv;
  auto reply = client.Clean(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->journal_csv, w->reference_journal);
  EXPECT_EQ(reply->session_id, 0u);  // untracked
  EXPECT_GT(reply->total_fixes, 0u);
  EXPECT_NE(reply->phase_summary.find("cRepair="), std::string::npos);
}

TEST(ServeTest, WantDataReturnsRepairedRelation) {
  ServeWorld* w = ServeWorld::Get();
  auto relation = w->LoadDirty();
  ASSERT_TRUE(relation.ok());
  Session session = w->reference->NewSession();
  ASSERT_TRUE(session.Run(&*relation).ok());
  std::ostringstream expected;
  ASSERT_TRUE(data::WriteCsv(expected, *relation).ok());

  Client client = w->Connect();
  CleanRequest request;
  request.data_csv = w->dirty_csv;
  request.want_data = true;
  auto reply = client.Clean(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->data_csv, expected.str());
}

TEST(ServeTest, TrackedDeltaCanonicalJournalByteIdentical) {
  ServeWorld* w = ServeWorld::Get();
  const data::SchemaPtr schema = w->reference->rules().data_schema_ptr();

  // Delta content: re-insert two dirty rows, rewrite tuple 0 with tuple 1's
  // cells, delete tuple 2. Built from the CSV text so the wire and the
  // in-process reference apply literally identical edits.
  std::istringstream dirty(w->dirty_csv);
  std::string header, row0, row1;
  std::getline(dirty, header);
  std::getline(dirty, row0);
  std::getline(dirty, row1);
  const std::string inserts_csv = header + "\n" + row0 + "\n" + row1 + "\n";
  const std::string updates_csv = row1 + "\n";

  // In-process reference.
  auto relation = w->LoadDirty();
  ASSERT_TRUE(relation.ok());
  Session session = w->reference->NewTrackedSession();
  ASSERT_TRUE(session.Run(&*relation).ok());
  Delta delta;
  auto inserts = ParseTupleRows(inserts_csv, schema, /*expect_header=*/true);
  ASSERT_TRUE(inserts.ok()) << inserts.status().ToString();
  delta.inserts = std::move(inserts).value();
  auto update_row = ParseTupleRows(updates_csv, schema,
                                   /*expect_header=*/false);
  ASSERT_TRUE(update_row.ok());
  delta.updates.emplace_back(0, std::move(update_row->front()));
  delta.deletes.push_back(2);
  auto reference_delta = session.ApplyDelta(delta);
  ASSERT_TRUE(reference_delta.ok()) << reference_delta.status().ToString();
  std::ostringstream expected;
  ASSERT_TRUE(session.CanonicalJournal().WriteCsv(expected).ok());

  // Over the wire.
  Client client = w->Connect();
  CleanRequest clean;
  clean.data_csv = w->dirty_csv;
  clean.track = true;
  auto cleaned = client.Clean(clean);
  ASSERT_TRUE(cleaned.ok()) << cleaned.status().ToString();
  ASSERT_NE(cleaned->session_id, 0u);
  DeltaRequest request;
  request.session_id = cleaned->session_id;
  request.inserts_csv = inserts_csv;
  request.update_ids = {0};
  request.updates_csv = updates_csv;
  request.delete_ids = {2};
  auto reply = client.Delta(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();

  EXPECT_EQ(reply->journal_csv, expected.str());
  EXPECT_EQ(reply->generation,
            static_cast<uint32_t>(reference_delta->generation));
  EXPECT_EQ(reply->inserted_ids.size(), 2u);
  EXPECT_EQ(reply->inserted_ids,
            std::vector<data::TupleId>(reference_delta->inserted_ids.begin(),
                                       reference_delta->inserted_ids.end()));
}

TEST(ServeTest, ReloadMidStreamKeepsInFlightRequestsIntact) {
  // The acceptance pin: RELOADs racing a stream of CLEANs must neither
  // drop nor corrupt them — every journal stays byte-identical.
  ServeWorld* w = ServeWorld::Get();
  std::atomic<int> failures{0};
  std::vector<std::thread> cleaners;
  for (int t = 0; t < 2; ++t) {
    cleaners.emplace_back([w, &failures] {
      Client client = w->Connect();
      for (int i = 0; i < 3; ++i) {
        CleanRequest request;
        request.data_csv = w->dirty_csv;
        auto reply = client.Clean(request);
        if (!reply.ok() || reply->journal_csv != w->reference_journal) {
          failures.fetch_add(1);
        }
      }
    });
  }
  Client reloader = w->Connect();
  int reloads_ok = 0;
  for (int i = 0; i < 3; ++i) {
    auto report = reloader.Reload("hosp");
    if (report.ok() && report->find("fingerprint") != std::string::npos) {
      ++reloads_ok;
    }
  }
  for (std::thread& t : cleaners) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(reloads_ok, 3);
  // Same files on disk -> the swapped-in engine has the same fingerprint.
  Client probe = w->Connect();
  auto stats = probe.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"reloads\": "), std::string::npos);
}

TEST(ServeTest, PipelinedCleanAndReloadShareOneConnection) {
  ServeWorld* w = ServeWorld::Get();
  Client client = w->Connect();
  CleanRequest request;
  request.data_csv = w->dirty_csv;
  auto clean_tag = client.SendClean(request);
  ASSERT_TRUE(clean_tag.ok());
  auto reload_tag = client.SendReload("hosp");
  ASSERT_TRUE(reload_tag.ok());
  // Await in the opposite order of sending: the client must buffer the
  // interleaved frames of the other tag.
  auto report = client.AwaitReload(*reload_tag);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto reply = client.AwaitClean(*clean_tag);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->journal_csv, w->reference_journal);
}

TEST(ServeTest, TrackedSessionReclaimedOnDisconnect) {
  ServeWorld* w = ServeWorld::Get();
  const uint64_t baseline = w->daemon->live_sessions();
  Client client = w->Connect();
  CleanRequest request;
  request.data_csv = w->dirty_csv;
  request.track = true;
  auto reply = client.Clean(request);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(w->daemon->live_sessions(), baseline + 1);
  client.Close();  // abrupt disconnect, no CLOSE_SESSION
  EXPECT_TRUE(Eventually(
      [&] { return w->daemon->live_sessions() == baseline; }));
}

TEST(ServeTest, CloseSessionThenDeltaFails) {
  ServeWorld* w = ServeWorld::Get();
  Client client = w->Connect();
  CleanRequest request;
  request.data_csv = w->dirty_csv;
  request.track = true;
  auto reply = client.Clean(request);
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(client.CloseSession(reply->session_id).ok());
  DeltaRequest delta;
  delta.session_id = reply->session_id;
  auto dr = client.Delta(delta);
  ASSERT_FALSE(dr.ok());
  EXPECT_EQ(dr.status().code(), StatusCode::kNotFound);
}

TEST(ServeTest, UnknownRulesetIsNotFoundAndConnectionSurvives) {
  ServeWorld* w = ServeWorld::Get();
  Client client = w->Connect();
  CleanRequest request;
  request.ruleset = "nope";
  request.data_csv = w->dirty_csv;
  auto reply = client.Clean(request);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServeTest, MalformedCsvIsInvalidArgumentNotACrash) {
  ServeWorld* w = ServeWorld::Get();
  Client client = w->Connect();
  CleanRequest request;
  request.data_csv = "wrong,header\noops,1\n";
  auto reply = client.Clean(request);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
  // Unbalanced quotes deep in the body are caught too.
  request.data_csv = w->dirty_csv + "\"unterminated";
  reply = client.Clean(request);
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServeTest, GarbageOpcodeGetsErrorResponseAndConnectionSurvives) {
  ServeWorld* w = ServeWorld::Get();
  auto fd = ConnectTcp("127.0.0.1", w->daemon->port());
  ASSERT_TRUE(fd.ok());
  FrameChannel channel(*fd);
  const uint64_t errors_before = w->daemon->protocol_errors();
  ASSERT_TRUE(channel.WriteFrame(7, static_cast<Op>(0x55), "junk").ok());
  auto frame = channel.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->op, Op::kError);
  EXPECT_EQ(frame->tag, 7u);
  // Framing stayed intact: the same connection still serves requests.
  ASSERT_TRUE(channel.WriteFrame(8, Op::kPing, "x").ok());
  frame = channel.ReadFrame();
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->op, Op::kPong);
  EXPECT_GE(w->daemon->protocol_errors(), errors_before + 1);
}

TEST(ServeTest, OversizedDeclaredLengthClosesConnection) {
  ServeWorld* w = ServeWorld::Get();
  auto fd = ConnectTcp("127.0.0.1", w->daemon->port());
  ASSERT_TRUE(fd.ok());
  const uint64_t errors_before = w->daemon->protocol_errors();
  // Header declaring a 256 MiB payload (limit is 64 MiB).
  unsigned char header[4] = {0, 0, 0, 0x10};
  ASSERT_EQ(::send(*fd, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  FrameChannel channel(*fd);  // owns + closes the fd
  // The daemon answers with a tag-0 error (best effort) and closes.
  auto frame = channel.ReadFrame();
  if (frame.ok()) {
    EXPECT_EQ(frame->op, Op::kError);
    frame = channel.ReadFrame();
    EXPECT_FALSE(frame.ok());  // then EOF
  }
  EXPECT_TRUE(Eventually(
      [&] { return w->daemon->protocol_errors() >= errors_before + 1; }));
}

TEST(ServeTest, TruncatedFrameIsAProtocolErrorNotACrash) {
  ServeWorld* w = ServeWorld::Get();
  const uint64_t errors_before = w->daemon->protocol_errors();
  {
    auto fd = ConnectTcp("127.0.0.1", w->daemon->port());
    ASSERT_TRUE(fd.ok());
    // Declare 100 payload bytes, send 7, disconnect mid-frame.
    unsigned char partial[11] = {100, 0, 0, 0, /*tag*/ 1, 0, 0, 0,
                                 /*op*/ 0x01, 'h', 'i'};
    ASSERT_EQ(::send(*fd, partial, sizeof(partial), 0),
              static_cast<ssize_t>(sizeof(partial)));
    ::close(*fd);
  }
  EXPECT_TRUE(Eventually(
      [&] { return w->daemon->protocol_errors() >= errors_before + 1; }));
  // Daemon is still serving.
  Client client = ServeWorld::Get()->Connect();
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServeTest, SlowReaderStillReceivesEveryChunkByte) {
  // chunk_size is 1024, so the journal streams as many frames; a reader
  // that dawdles between frames must still assemble identical bytes.
  ServeWorld* w = ServeWorld::Get();
  Client client = w->Connect();
  CleanRequest request;
  request.data_csv = w->dirty_csv;
  auto tag = client.SendClean(request);
  ASSERT_TRUE(tag.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto reply = client.AwaitClean(*tag);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->journal_csv, w->reference_journal);
}

TEST(ServeTest, StatsReportsServingCounters) {
  ServeWorld* w = ServeWorld::Get();
  Client client = w->Connect();
  ASSERT_TRUE(client.Ping().ok());
  auto json = client.Stats();
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"CLEAN\""), std::string::npos);
  EXPECT_NE(json->find("\"latency_us\""), std::string::npos);
  EXPECT_NE(json->find("\"fingerprint\""), std::string::npos);
  EXPECT_NE(json->find("\"memo\""), std::string::npos);
  EXPECT_NE(json->find("\"string_pool\""), std::string::npos);
  EXPECT_FALSE(w->daemon->SummaryText().empty());
}

TEST(ServeTest, PoolExhaustionTravelsAsResourceExhausted) {
  // The satellite contract: StringPool id-space exhaustion (OutOfRange at
  // the pool layer) reaches wire clients as ResourceExhausted.
  const Status pool_error = Status::OutOfRange(
      "StringPool: id space exhausted (268435455 ids interned)");
  const uint8_t code = WireErrorCode(pool_error);
  EXPECT_EQ(code, static_cast<uint8_t>(StatusCode::kResourceExhausted));
  const Status round_tripped = StatusFromWire(code, pool_error.message());
  EXPECT_EQ(round_tripped.code(), StatusCode::kResourceExhausted);
  // Ordinary OutOfRange (not the pool) stays OutOfRange.
  EXPECT_EQ(WireErrorCode(Status::OutOfRange("index out of range")),
            static_cast<uint8_t>(StatusCode::kOutOfRange));
}

// ---------------------------------------------------------------------------
// Fault injection, deadlines & overload
// ---------------------------------------------------------------------------

/// A dedicated daemon over ServeWorld's on-disk files with caller-chosen
/// admission options and an optional fault hook. The shared ServeWorld
/// daemon runs with default (unbounded) options, so every overload /
/// cancellation scenario gets its own small instance; the hook must be
/// installed before Start(), as the Daemon contract requires.
std::unique_ptr<Daemon> StartFaultDaemon(DaemonOptions options,
                                         Daemon::FaultHook hook = nullptr) {
  ServeWorld* w = ServeWorld::Get();
  RulesetConfig cfg;
  cfg.name = "hosp";
  cfg.master_csv = w->dir + "/master.csv";
  cfg.rules_file = w->dir + "/rules.txt";
  cfg.schema_csv = w->dirty_path;
  options.port = 0;
  auto daemon = std::make_unique<Daemon>(std::move(options),
                                         std::vector<RulesetConfig>{cfg});
  if (hook) daemon->SetFaultHookForTest(std::move(hook));
  Status started = daemon->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  return daemon;
}

Client ConnectTo(const Daemon& daemon) {
  auto client = Client::Connect("127.0.0.1", daemon.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

/// Fault hook stalling the first `n` CLEANs at "clean.before_run" until
/// either the test flips `release` or the request's cancel token trips — a
/// model of a wedged worker that still honours cooperative cancellation.
struct Stall {
  std::atomic<int> remaining;
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};

  explicit Stall(int n) : remaining(n) {}

  Daemon::FaultHook Hook() {
    return [this](std::string_view point, const common::CancelToken* token) {
      if (point != "clean.before_run") return Status::OK();
      if (remaining.fetch_sub(1) <= 0) return Status::OK();
      entered.fetch_add(1);
      while (!release.load() &&
             (token == nullptr || !token->IsCancelled())) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (release.load()) return Status::OK();
      return token != nullptr ? token->status()
                              : Status::Cancelled("stall aborted");
    };
  }
};

int64_t MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(FaultInjectionTest, StalledWorkerDeadlineFiresWithinBound) {
  // The acceptance pin: a wedged worker plus a 100 ms request deadline must
  // answer kDeadlineExceeded in well under a second, and the lone worker
  // must come back — a follow-up CLEAN on the SAME connection succeeds with
  // a journal byte-identical to the in-process reference.
  ServeWorld* w = ServeWorld::Get();
  Stall stall(1);
  DaemonOptions options;
  options.n_workers = 1;
  auto daemon = StartFaultDaemon(options, stall.Hook());
  Client client = ConnectTo(*daemon);

  CleanRequest request;
  request.data_csv = w->dirty_csv;
  request.deadline_ms = 100;
  const auto t0 = std::chrono::steady_clock::now();
  auto reply = client.Clean(request);
  const int64_t elapsed_ms = MsSince(t0);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status().ToString();
  EXPECT_LT(elapsed_ms, 1000);
  EXPECT_EQ(daemon->deadlines_exceeded(), 1u);

  CleanRequest again;
  again.data_csv = w->dirty_csv;
  auto ok = client.Clean(again);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->journal_csv, w->reference_journal);
  EXPECT_EQ(daemon->requests_rejected(), 0u);
}

TEST(FaultInjectionTest, ExpiredServerDefaultDeadlineAppliesWithoutClientOptIn) {
  // request_timeout_ms backs requests whose frames carry deadline 0.
  ServeWorld* w = ServeWorld::Get();
  Stall stall(1);
  DaemonOptions options;
  options.n_workers = 1;
  options.request_timeout_ms = 100;
  auto daemon = StartFaultDaemon(options, stall.Hook());
  Client client = ConnectTo(*daemon);

  CleanRequest request;
  request.data_csv = w->dirty_csv;  // no deadline_ms set
  auto reply = client.Clean(request);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(daemon->deadlines_exceeded(), 1u);
}

TEST(FaultInjectionTest, FullQueueRejectsImmediatelyWithRetryAfter) {
  // One worker (wedged) + a queue bound of one: the first CLEAN occupies
  // the worker, the second fills the queue, the third must be refused on
  // the reader thread — immediately, with a retry-after hint — while both
  // admitted requests still complete once the stall lifts.
  ServeWorld* w = ServeWorld::Get();
  Stall stall(1);
  DaemonOptions options;
  options.n_workers = 1;
  options.max_queue = 1;
  auto daemon = StartFaultDaemon(options, stall.Hook());
  Client client = ConnectTo(*daemon);

  CleanRequest request;
  request.data_csv = w->dirty_csv;
  auto tag_a = client.SendClean(request);
  ASSERT_TRUE(tag_a.ok());
  ASSERT_TRUE(Eventually([&] { return stall.entered.load() == 1; }));
  // The reader handles frames in order, so by the time C is decoded, B is
  // already queued: C deterministically trips the bound.
  auto tag_b = client.SendClean(request);
  ASSERT_TRUE(tag_b.ok());
  auto tag_c = client.SendClean(request);
  ASSERT_TRUE(tag_c.ok());

  const auto t0 = std::chrono::steady_clock::now();
  auto rejected = client.AwaitClean(*tag_c);
  const int64_t elapsed_ms = MsSince(t0);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable)
      << rejected.status().ToString();
  EXPECT_GT(client.last_retry_after_ms(), 0u);
  EXPECT_LT(elapsed_ms, 1000);  // refused while A still stalls
  EXPECT_EQ(daemon->requests_rejected(), 1u);

  stall.release.store(true);
  auto a = client.AwaitClean(*tag_a);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = client.AwaitClean(*tag_b);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->journal_csv, w->reference_journal);
  EXPECT_EQ(b->journal_csv, w->reference_journal);
}

TEST(FaultInjectionTest, CancelReachesAStalledRequestAndReclaimsTheWorker) {
  // CANCEL is handled on the reader thread, so it lands even with every
  // worker wedged; the cancelled request unwinds as kCancelled and the
  // worker serves the next CLEAN normally.
  ServeWorld* w = ServeWorld::Get();
  Stall stall(1);
  DaemonOptions options;
  options.n_workers = 1;
  auto daemon = StartFaultDaemon(options, stall.Hook());
  Client client = ConnectTo(*daemon);

  CleanRequest request;
  request.data_csv = w->dirty_csv;
  auto tag = client.SendClean(request);
  ASSERT_TRUE(tag.ok());
  ASSERT_TRUE(Eventually([&] { return stall.entered.load() == 1; }));
  ASSERT_TRUE(client.Cancel(*tag).ok());
  auto reply = client.AwaitClean(*tag);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kCancelled)
      << reply.status().ToString();
  EXPECT_EQ(daemon->requests_cancelled(), 1u);

  auto again = client.Clean(request);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->journal_csv, w->reference_journal);
}

TEST(FaultInjectionTest, CancelOfAnUnknownTagIsBenign) {
  ServeWorld* w = ServeWorld::Get();
  Client client = w->Connect();
  EXPECT_TRUE(client.Cancel(0xdeadu).ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST(FaultInjectionTest, ShutdownDrainCancelsWedgedRequests) {
  // A wedged request must not hold the graceful drain hostage: after
  // drain_grace_ms every live token is tripped and Shutdown completes.
  ServeWorld* w = ServeWorld::Get();
  Stall stall(1);
  DaemonOptions options;
  options.n_workers = 1;
  options.drain_grace_ms = 100;
  auto daemon = StartFaultDaemon(options, stall.Hook());
  Client client = ConnectTo(*daemon);

  CleanRequest request;
  request.data_csv = w->dirty_csv;
  auto tag = client.SendClean(request);
  ASSERT_TRUE(tag.ok());
  ASSERT_TRUE(Eventually([&] { return stall.entered.load() == 1; }));

  const auto t0 = std::chrono::steady_clock::now();
  daemon->Shutdown();
  EXPECT_LT(MsSince(t0), 5000);
  EXPECT_GE(daemon->requests_cancelled(), 1u);
  EXPECT_NE(daemon->SummaryText().find("cancelled"), std::string::npos);
}

TEST(FaultInjectionTest, PerRulesetInflightCapRefusesThenBackoffSucceeds) {
  // max_inflight_per_ruleset = 1: while one CLEAN holds the slot (wedged),
  // a second is refused with kUnavailable; a retrying client's backoff
  // carries it through once the slot frees.
  ServeWorld* w = ServeWorld::Get();
  Stall stall(1);
  DaemonOptions options;
  options.n_workers = 2;
  options.max_inflight_per_ruleset = 1;
  auto daemon = StartFaultDaemon(options, stall.Hook());
  Client holder = ConnectTo(*daemon);

  CleanRequest request;
  request.data_csv = w->dirty_csv;
  auto tag = holder.SendClean(request);
  ASSERT_TRUE(tag.ok());
  ASSERT_TRUE(Eventually([&] { return stall.entered.load() == 1; }));

  // No retries: the refusal itself is observable.
  Client probe = ConnectTo(*daemon);
  auto refused = probe.Clean(request);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable)
      << refused.status().ToString();
  EXPECT_GT(probe.last_retry_after_ms(), 0u);
  EXPECT_GE(daemon->requests_rejected(), 1u);

  // With retries: keeps refusing while the slot is held, succeeds after.
  Client retrier = ConnectTo(*daemon);
  RetryPolicy policy;
  policy.max_retries = 100;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 50;
  policy.jitter_seed = 42;
  retrier.set_retry_policy(policy);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stall.release.store(true);
  });
  auto retried = retrier.Clean(request);
  releaser.join();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->journal_csv, w->reference_journal);
  auto held = holder.AwaitClean(*tag);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(held->journal_csv, w->reference_journal);
}

TEST(OverloadTest, SixteenClientsBackoffToByteIdenticalSuccess) {
  // The overload acceptance pin: sixteen simultaneous CLEANs against a
  // queue bound of two get their excess refused with kUnavailable +
  // retry-after, and client-side capped exponential backoff (seeded per
  // client) drives every one of them to a byte-identical journal.
  ServeWorld* w = ServeWorld::Get();
  DaemonOptions options;
  options.n_workers = 2;
  options.max_queue = 2;
  auto daemon = StartFaultDaemon(options);

  constexpr int kClients = 16;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> ok_count{0};
  std::atomic<int> byte_identical{0};
  std::atomic<uint64_t> retries{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client = ConnectTo(*daemon);
      RetryPolicy policy;
      policy.max_retries = 200;
      policy.base_backoff_ms = 5;
      policy.max_backoff_ms = 100;
      policy.jitter_seed = static_cast<uint64_t>(i + 1);
      client.set_retry_policy(policy);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::sleep_for(
          std::chrono::milliseconds(1));
      CleanRequest request;
      request.data_csv = w->dirty_csv;
      auto reply = client.Clean(request);
      if (reply.ok()) {
        ok_count.fetch_add(1);
        if (reply->journal_csv == w->reference_journal) {
          byte_identical.fetch_add(1);
        }
      }
      retries.fetch_add(client.retries_performed());
    });
  }
  while (ready.load() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  go.store(true);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ok_count.load(), kClients);
  EXPECT_EQ(byte_identical.load(), kClients);
  // 16 near-simultaneous arrivals against 2 workers + 2 queue slots: the
  // rest were refused at admission and later retried their way in.
  EXPECT_GT(daemon->requests_rejected(), 0u);
  EXPECT_GT(retries.load(), 0u);
  const std::string stats = daemon->StatsJson();
  EXPECT_NE(stats.find("\"overload\""), std::string::npos);
  EXPECT_NE(stats.find("\"rejected\""), std::string::npos);
}

TEST(FaultInjectionTest, RequestLogRecordsOneJsonLinePerRequest) {
  // --log-requests: one structured line per request, including refusals.
  ServeWorld* w = ServeWorld::Get();
  const std::string log_path = w->dir + "/requests.log";
  DaemonOptions options;
  options.n_workers = 1;
  options.request_log_path = log_path;
  auto daemon = StartFaultDaemon(options);
  {
    Client client = ConnectTo(*daemon);
    CleanRequest request;
    request.data_csv = w->dirty_csv;
    ASSERT_TRUE(client.Clean(request).ok());
    CleanRequest bad;
    bad.ruleset = "nope";
    bad.data_csv = w->dirty_csv;
    ASSERT_FALSE(client.Clean(bad).ok());
  }
  daemon->Shutdown();  // flushes and closes the log

  std::ifstream in(log_path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string log = buf.str();
  EXPECT_NE(log.find("\"op\": \"CLEAN\""), std::string::npos);
  EXPECT_NE(log.find("\"ruleset\": \"hosp\""), std::string::npos);
  EXPECT_NE(log.find("\"status\": \"OK\""), std::string::npos);
  EXPECT_NE(log.find("\"status\": \"NotFound\""), std::string::npos);
  EXPECT_NE(log.find("\"queue_wait_us\": "), std::string::npos);
  EXPECT_NE(log.find("\"run_us\": "), std::string::npos);
  // Every line parses as one JSON object (cheap structural check).
  std::istringstream lines(log);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_GE(n, 2);
}

TEST(WireDeadlineTest, DeadlineFieldRoundTripsThroughAFrame) {
  // The wire header's deadline_ms field survives a write/read round trip
  // (exercised against the shared daemon's PING echo).
  ServeWorld* w = ServeWorld::Get();
  auto fd = ConnectTcp("127.0.0.1", w->daemon->port());
  ASSERT_TRUE(fd.ok());
  FrameChannel channel(*fd);
  ASSERT_TRUE(
      channel.WriteFrame(21, Op::kPing, "deadline?", /*deadline_ms=*/5000)
          .ok());
  auto frame = channel.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->op, Op::kPong);
  EXPECT_EQ(frame->tag, 21u);
  // PONG leads with the length-prefixed echo; a health/identity trailer
  // (load + ruleset fingerprints, for the cluster prober) follows it.
  const std::string echo = "deadline?";
  ASSERT_GE(frame->body.size(), 4 + echo.size());
  uint32_t echo_len = 0;
  for (int i = 0; i < 4; ++i) {
    echo_len |= static_cast<uint32_t>(
                    static_cast<unsigned char>(frame->body[i]))
                << (8 * i);
  }
  EXPECT_EQ(echo_len, echo.size());
  EXPECT_EQ(frame->body.substr(4, echo.size()), echo);
}

// ---------------------------------------------------------------------------
// Snapshot warm starts
// ---------------------------------------------------------------------------

std::string MakeSnapshotDir() {
  char tmpl[] = "/tmp/uniclean_serve_snap.XXXXXX";
  EXPECT_NE(::mkdtemp(tmpl), nullptr);
  return tmpl;
}

TEST(SnapshotServeTest, ColdStartWritesSnapshotAndRestartWarmStartsFromIt) {
  ServeWorld* w = ServeWorld::Get();
  const std::string snap_dir = MakeSnapshotDir();
  const std::string snap_path = snap_dir + "/hosp.ucsnap";
  DaemonOptions options;
  options.n_workers = 1;
  options.snapshot_dir = snap_dir;
  {
    auto daemon = StartFaultDaemon(options);
    // The cold start left a valid snapshot behind for the next process.
    EXPECT_TRUE(snapshot::Verify(snap_path).ok());
    Client client = ConnectTo(*daemon);
    auto stats = client.Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_NE(stats->find("\"snapshot_warmed_engines\": 0"),
              std::string::npos);
    EXPECT_NE(stats->find("\"engine_memory\""), std::string::npos);
  }
  // "Restart": a second daemon over the same files and snapshot dir must
  // warm-start from the file and serve byte-identical journals.
  auto daemon = StartFaultDaemon(options);
  Client client = ConnectTo(*daemon);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("\"snapshot_warmed_engines\": 1"), std::string::npos);
  EXPECT_NE(stats->find(snap_path), std::string::npos);
  CleanRequest request;
  request.data_csv = w->dirty_csv;
  auto reply = client.Clean(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->journal_csv, w->reference_journal);
}

TEST(SnapshotServeTest, CorruptSnapshotFallsBackToColdBuildAndRewrites) {
  ServeWorld* w = ServeWorld::Get();
  const std::string snap_dir = MakeSnapshotDir();
  const std::string snap_path = snap_dir + "/hosp.ucsnap";
  ASSERT_TRUE(snapshot::WriteSnapshot(*w->reference, snap_path).ok());
  {
    // Flip one payload byte: the load must refuse the file, not crash.
    std::fstream f(snap_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    ASSERT_GT(size, 200);
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }
  ASSERT_FALSE(snapshot::Verify(snap_path).ok());
  DaemonOptions options;
  options.n_workers = 1;
  options.snapshot_dir = snap_dir;
  auto daemon = StartFaultDaemon(options);
  Client client = ConnectTo(*daemon);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("\"snapshot_warmed_engines\": 0"), std::string::npos);
  // The cold build overwrote the bad file; journals are unaffected.
  EXPECT_TRUE(snapshot::Verify(snap_path).ok());
  CleanRequest request;
  request.data_csv = w->dirty_csv;
  auto reply = client.Clean(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->journal_csv, w->reference_journal);
}

TEST(SnapshotServeTest, ReloadRewritesTheSnapshot) {
  const std::string snap_dir = MakeSnapshotDir();
  const std::string snap_path = snap_dir + "/hosp.ucsnap";
  DaemonOptions options;
  options.n_workers = 1;
  options.snapshot_dir = snap_dir;
  auto daemon = StartFaultDaemon(options);
  ASSERT_TRUE(snapshot::Verify(snap_path).ok());
  // RELOAD must leave a fresh snapshot of the rebuilt engine behind even if
  // the old file vanished in between.
  ASSERT_EQ(std::remove(snap_path.c_str()), 0);
  Client client = ConnectTo(*daemon);
  auto reload = client.Reload();
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  EXPECT_TRUE(snapshot::Verify(snap_path).ok());
}

TEST(WireDeadlineTest, NewErrorCodesRoundTripUnchanged) {
  const Status statuses[] = {
      Status::DeadlineExceeded("request deadline (100 ms) exceeded"),
      Status::Cancelled("cancelled by client"),
      Status::Unavailable("work queue full"),
  };
  for (const Status& status : statuses) {
    const uint8_t code = WireErrorCode(status);
    const Status round_tripped = StatusFromWire(code, status.message());
    EXPECT_EQ(round_tripped.code(), status.code());
    EXPECT_EQ(round_tripped.message(), status.message());
  }
}

}  // namespace
}  // namespace serve
}  // namespace uniclean
