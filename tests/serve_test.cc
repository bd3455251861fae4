// The serving layer (src/serve): wire-protocol parity with the in-process
// Session API (batch journal and DELTA canonical journal byte-identical),
// hot reload against in-flight requests (the acceptance pin), tracked
// session lifecycle (explicit close, reclaim on disconnect), and framing
// robustness — truncated frames, oversized declared lengths, garbage
// opcodes, malformed CSV, mid-stream disconnects, seeded mutations of every
// request opcode's frame — all of which must yield a clean error response
// or connection close, never a daemon crash. Runs
// an in-process Daemon on an ephemeral port; also the ASan/TSan target for
// the serving threads.

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "gen/dataset.h"
#include "scratch_dir.h"
#include "serve/client.h"
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
    // The world lives until the process exits, and so does its directory.
    static const testing::ScratchDir scratch("uniclean_serve_test");
    dir = scratch.path();

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
  std::istringstream inserts_in(inserts_csv);
  auto inserts = data::ReadCsvRows(inserts_in, *schema, /*header=*/true);
  ASSERT_TRUE(inserts.ok()) << inserts.status().ToString();
  delta.inserts = std::move(inserts).value();
  std::istringstream updates_in(updates_csv);
  auto update_row = data::ReadCsvRows(updates_in, *schema, /*header=*/false);
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

// Every DELTA is one re-run of the whole relation: DELTA_DONE reports the
// live tuple count as `affected`, one refinement round and the re-run's fix
// total. An empty DELTA is a no-op that reports zero for both.
TEST(ServeTest, DeltaDoneCountsEveryLiveTupleAndOneRound) {
  ServeWorld* w = ServeWorld::Get();

  auto relation = w->LoadDirty();
  ASSERT_TRUE(relation.ok());
  Session session = w->reference->NewTrackedSession();
  ASSERT_TRUE(session.Run(&*relation).ok());
  Delta delta;
  delta.deletes.push_back(2);
  auto reference_delta = session.ApplyDelta(delta);
  ASSERT_TRUE(reference_delta.ok()) << reference_delta.status().ToString();

  Client client = w->Connect();
  CleanRequest clean;
  clean.data_csv = w->dirty_csv;
  clean.track = true;
  auto cleaned = client.Clean(clean);
  ASSERT_TRUE(cleaned.ok()) << cleaned.status().ToString();
  DeltaRequest request;
  request.session_id = cleaned->session_id;
  request.delete_ids = {2};
  auto reply = client.Delta(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->generation, 1u);
  EXPECT_EQ(reply->affected, static_cast<uint32_t>(relation->live_size()));
  EXPECT_EQ(reply->refinement_rounds, 1u);
  EXPECT_EQ(reply->total_fixes,
            static_cast<uint32_t>(reference_delta->total_fixes()));

  DeltaRequest empty;
  empty.session_id = cleaned->session_id;
  auto noop = client.Delta(empty);
  ASSERT_TRUE(noop.ok()) << noop.status().ToString();
  EXPECT_EQ(noop->generation, 1u);
  EXPECT_EQ(noop->affected, 0u);
  EXPECT_EQ(noop->refinement_rounds, 0u);
  EXPECT_EQ(noop->journal_csv, reply->journal_csv);
  EXPECT_TRUE(client.CloseSession(cleaned->session_id).ok());
}

TEST(ServeTest, ReloadMidStreamKeepsInFlightRequestsIntact) {
  // The acceptance pin: RELOADs racing a stream of CLEANs must neither
  // drop nor corrupt them — every journal stays byte-identical.
  ServeWorld* w = ServeWorld::Get();
  const StatsSnapshot before = w->daemon->Stats();
  ASSERT_EQ(before.rulesets.size(), 1u);
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
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->rulesets.size(), 1u);
  EXPECT_EQ(stats->rulesets[0].reloads, before.rulesets[0].reloads + 3);
  EXPECT_EQ(stats->rulesets[0].fingerprint, before.rulesets[0].fingerprint);
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
  const uint64_t baseline = w->daemon->Stats().sessions_live;
  Client client = w->Connect();
  CleanRequest request;
  request.data_csv = w->dirty_csv;
  request.track = true;
  auto reply = client.Clean(request);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(w->daemon->Stats().sessions_live, baseline + 1);
  client.Close();  // abrupt disconnect, no CLOSE_SESSION
  EXPECT_TRUE(Eventually(
      [&] { return w->daemon->Stats().sessions_live == baseline; }));
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

/// Malformed CLEAN bodies, built from a valid two-row sample of the served
/// data. data/csv.h is the only CSV reader, so each must fail with the same
/// code through the file reader (the CLI's load path) and a wire CLEAN.
enum class MalformedCsv {
  kBadHeader,
  kArity,
  kEmpty,
  kUnterminatedQuote,
  kNanConfidence,
  kConfidenceHeader,
};

struct MalformedInput {
  std::string data_csv;
  std::string confidence_csv;  // empty: none
  StatusCode code;
};

MalformedInput MakeMalformed(MalformedCsv kind) {
  ServeWorld* w = ServeWorld::Get();
  std::istringstream dirty(w->dirty_csv);
  std::string header, row0, row1;
  std::getline(dirty, header);
  std::getline(dirty, row0);
  std::getline(dirty, row1);
  const std::string sample = header + "\n" + row0 + "\n" + row1 + "\n";
  // The header with its first name replaced: right arity, wrong name.
  const std::string wrong_header = "WRONG" + header.substr(header.find(','));
  const int arity = w->reference->rules().data_schema().arity();
  // Two confidence rows, first cell `cell`, every other cell 1.
  const auto confidences = [arity](const std::string& conf_header,
                                   const std::string& cell) {
    std::string row = cell;
    for (int a = 1; a < arity; ++a) row += ",1";
    return conf_header + "\n" + row + "\n" + row + "\n";
  };
  switch (kind) {
    case MalformedCsv::kBadHeader:
      return {wrong_header + "\n" + row0 + "\n", "",
              StatusCode::kInvalidArgument};
    case MalformedCsv::kArity:
      return {sample + row0 + ",extra\n", "", StatusCode::kInvalidArgument};
    case MalformedCsv::kEmpty:
      return {"", "", StatusCode::kInvalidArgument};
    case MalformedCsv::kUnterminatedQuote:
      return {sample + "\"unterminated", "", StatusCode::kCorruption};
    case MalformedCsv::kNanConfidence:
      return {sample, confidences(header, "nan"),
              StatusCode::kInvalidArgument};
    case MalformedCsv::kConfidenceHeader:
      return {sample, confidences(wrong_header, "1"),
              StatusCode::kInvalidArgument};
  }
  return {};
}

class MalformedCsvTest : public ::testing::TestWithParam<MalformedCsv> {};

TEST_P(MalformedCsvTest, FileReaderAndWireCleanReturnTheSameCode) {
  ServeWorld* w = ServeWorld::Get();
  const MalformedInput input = MakeMalformed(GetParam());

  const std::string data_path = w->dir + "/malformed.csv";
  const std::string confidence_path = w->dir + "/malformed_confidence.csv";
  std::ofstream(data_path, std::ios::binary) << input.data_csv;
  std::ofstream(confidence_path, std::ios::binary) << input.confidence_csv;
  auto relation =
      data::ReadCsvFile(data_path, w->reference->rules().data_schema_ptr());
  Status file_status = relation.status();
  if (relation.ok() && !input.confidence_csv.empty()) {
    file_status = data::ReadConfidenceCsvFile(confidence_path, &*relation);
  }
  EXPECT_EQ(file_status.code(), input.code) << file_status.ToString();

  Client client = w->Connect();
  CleanRequest request;
  request.data_csv = input.data_csv;
  request.confidence_csv = input.confidence_csv;
  auto reply = client.Clean(request);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), input.code) << reply.status().ToString();
  EXPECT_TRUE(client.Ping().ok());
}

std::string MalformedCsvName(
    const ::testing::TestParamInfo<MalformedCsv>& info) {
  static const char* const kNames[] = {
      "BadHeader",         "Arity",         "Empty",
      "UnterminatedQuote", "NanConfidence", "ConfidenceHeader"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MalformedCsvTest,
    ::testing::Values(MalformedCsv::kBadHeader, MalformedCsv::kArity,
                      MalformedCsv::kEmpty, MalformedCsv::kUnterminatedQuote,
                      MalformedCsv::kNanConfidence,
                      MalformedCsv::kConfidenceHeader),
    MalformedCsvName);

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
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The PING above replied, so its latency is already recorded.
  const OpStats& ping = stats->requests[Op::kPing];
  EXPECT_GE(ping.count, 1u);
  LatencyHistogram ping_latency;
  ASSERT_TRUE(ping_latency.MergeEncoded(ping.hist));
  EXPECT_GE(ping_latency.count(), 1u);
  EXPECT_GE(stats->requests[Op::kStats].count, 1u);
  EXPECT_GE(stats->connections_live, 1u);
  ASSERT_EQ(stats->rulesets.size(), 1u);
  const RulesetStats& hosp = stats->rulesets[0];
  EXPECT_EQ(hosp.name, "hosp");
  EXPECT_EQ(hosp.fingerprint, w->daemon->Stats().rulesets[0].fingerprint);
  EXPECT_NE(hosp.fingerprint, 0u);
  EXPECT_EQ(hosp.master_tuples, 60u);
  EXPECT_GT(hosp.cfds + hosp.mds, 0u);
  EXPECT_GT(stats->string_pool.interned, 0u);
  EXPECT_GT(stats->string_pool.remaining, 0u);
  EXPECT_FALSE(w->daemon->SummaryText().empty());
}

/// True when no cumulative counter in `now` is below its value in `before`.
bool CountersNeverDecrease(const StatsSnapshot& before,
                           const StatsSnapshot& now) {
  auto hist_count = [](const OpStats& op) {
    LatencyHistogram h;
    h.MergeEncoded(op.hist);
    return h.count();
  };
  bool ok = now.connections_accepted >= before.connections_accepted &&
            now.sessions_opened >= before.sessions_opened &&
            now.protocol_errors >= before.protocol_errors &&
            now.rejected >= before.rejected &&
            now.cancelled >= before.cancelled &&
            now.deadline_exceeded >= before.deadline_exceeded &&
            now.rulesets.size() == before.rulesets.size();
  for (int i = 0; ok && i < kNumRequestOps; ++i) {
    const OpStats& a = before.requests.ops[i];
    const OpStats& b = now.requests.ops[i];
    ok = b.count >= a.count && b.errors >= a.errors &&
         b.rejected >= a.rejected && b.cancelled >= a.cancelled &&
         b.deadline_exceeded >= a.deadline_exceeded &&
         hist_count(b) >= hist_count(a);
  }
  for (size_t i = 0; ok && i < now.rulesets.size(); ++i) {
    const RulesetStats& a = before.rulesets[i];
    const RulesetStats& b = now.rulesets[i];
    ok = b.reloads >= a.reloads && b.memo.hits >= a.memo.hits &&
         b.memo.misses >= a.memo.misses;
  }
  return ok;
}

TEST(ServeTest, StatsWhileCleansRunNeverGoesBackwards) {
  // server.h promises Stats() is safe while requests run: one thread polls
  // it while four clients CLEAN. No counter ever decreases, and once the
  // clients are done every CLEAN is counted and timed exactly once.
  ServeWorld* w = ServeWorld::Get();
  constexpr int kClients = 4;
  constexpr int kCleansEach = 3;
  const StatsSnapshot baseline = w->daemon->Stats();
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  int polls = 0;
  int regressions = 0;
  std::thread poller([&] {
    StatsSnapshot previous = w->daemon->Stats();
    while (!done.load()) {
      StatsSnapshot now = w->daemon->Stats();
      if (!CountersNeverDecrease(previous, now)) ++regressions;
      previous = std::move(now);
      ++polls;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> cleaners;
  for (int t = 0; t < kClients; ++t) {
    cleaners.emplace_back([w, &failures] {
      Client client = w->Connect();
      for (int i = 0; i < kCleansEach; ++i) {
        CleanRequest request;
        request.data_csv = w->dirty_csv;
        auto reply = client.Clean(request);
        if (!reply.ok() || reply->journal_csv != w->reference_journal) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : cleaners) t.join();
  done.store(true);
  poller.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(polls, 0);
  EXPECT_EQ(regressions, 0);

  const StatsSnapshot after = w->daemon->Stats();
  EXPECT_TRUE(CountersNeverDecrease(baseline, after));
  const uint64_t sent = kClients * kCleansEach;
  EXPECT_EQ(after.requests[Op::kClean].count,
            baseline.requests[Op::kClean].count + sent);
  EXPECT_EQ(after.requests[Op::kClean].errors,
            baseline.requests[Op::kClean].errors);
  LatencyHistogram timed_before, timed_after;
  ASSERT_TRUE(timed_before.MergeEncoded(baseline.requests[Op::kClean].hist));
  ASSERT_TRUE(timed_after.MergeEncoded(after.requests[Op::kClean].hist));
  EXPECT_EQ(timed_after.count(), timed_before.count() + sent);
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

TEST(ServeTest, ReloadOfADuplicateColumnMasterFailsAndTheOldEngineServes) {
  // A master file that gains a repeated column must fail the RELOAD with
  // InvalidArgument, not abort the daemon, and leave the old engine up.
  ServeWorld* w = ServeWorld::Get();
  const std::string master = w->dir + "/reload_master.csv";
  {
    std::ifstream in(w->dir + "/master.csv", std::ios::binary);
    std::ofstream out(master, std::ios::binary);
    out << in.rdbuf();
  }
  RulesetConfig cfg;
  cfg.name = "hosp";
  cfg.master_csv = master;
  cfg.rules_file = w->dir + "/rules.txt";
  cfg.schema_csv = w->dirty_path;
  DaemonOptions options;
  options.port = 0;
  Daemon daemon(options, std::vector<RulesetConfig>{cfg});
  Status started = daemon.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();
  Client client = ConnectTo(daemon);
  auto before = client.PingEx();
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  std::string header, rest;
  {
    std::ifstream in(master, std::ios::binary);
    std::getline(in, header);
    std::ostringstream body;
    body << in.rdbuf();
    rest = body.str();
  }
  std::ofstream(master, std::ios::binary)
      << header << ',' << header.substr(0, header.find(',')) << '\n'
      << rest;
  auto reload = client.Reload("hosp");
  ASSERT_FALSE(reload.ok());
  EXPECT_EQ(reload.status().code(), StatusCode::kInvalidArgument)
      << reload.status().ToString();

  CleanRequest request;
  request.data_csv = w->dirty_csv;
  auto reply = client.Clean(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->journal_csv, w->reference_journal);
  auto after = client.PingEx();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rulesets, before->rulesets);
}

TEST(ServeTest, ReloadSwapsEveryEngineOrNone) {
  // RELOAD "" builds every replacement before it swaps any. The first
  // ruleset's rules change validly and the second's break: the RELOAD fails,
  // and the first ruleset keeps its engine, fingerprint and reload count.
  ServeWorld* w = ServeWorld::Get();
  std::string rules;
  {
    std::ifstream in(w->dir + "/rules.txt", std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    rules = body.str();
  }
  std::vector<RulesetConfig> configs;
  for (const char* name : {"first", "second"}) {
    RulesetConfig cfg;
    cfg.name = name;
    cfg.master_csv = w->dir + "/master.csv";
    cfg.rules_file = w->dir + "/reload_" + cfg.name + "_rules.txt";
    cfg.schema_csv = w->dirty_path;
    std::ofstream(cfg.rules_file, std::ios::binary) << rules;
    configs.push_back(cfg);
  }
  DaemonOptions options;
  options.port = 0;
  Daemon daemon(options, configs);
  Status started = daemon.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();
  Client client = ConnectTo(daemon);
  auto before = client.Stats();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->rulesets.size(), 2u);

  std::ofstream(configs[0].rules_file, std::ios::binary)
      << rules << "CFD reload_probe: ZIP -> County\n";
  std::ofstream(configs[1].rules_file, std::ios::binary) << "not a rule\n";
  auto reload = client.Reload("");
  ASSERT_FALSE(reload.ok());
  EXPECT_EQ(reload.status().code(), StatusCode::kInvalidArgument)
      << reload.status().ToString();
  auto after = client.Stats();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(before->rulesets[i].name);
    EXPECT_EQ(after->rulesets[i].fingerprint, before->rulesets[i].fingerprint);
    EXPECT_EQ(after->rulesets[i].reloads, before->rulesets[i].reloads);
  }

  // Mended, the same RELOAD swaps both.
  std::ofstream(configs[1].rules_file, std::ios::binary) << rules;
  reload = client.Reload("");
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  auto swapped = client.Stats();
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_NE(swapped->rulesets[0].fingerprint, before->rulesets[0].fingerprint);
  EXPECT_EQ(swapped->rulesets[1].fingerprint, before->rulesets[1].fingerprint);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(swapped->rulesets[i].reloads, before->rulesets[i].reloads + 1);
  }
}

/// The process's peak resident set size (VmHWM) in kB, or -1.
long PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST(ServeTest, AStalledFrameHoldsOnlyWhatItSent) {
  // A header declaring the largest payload, then 100 bytes and EOF: the
  // reader fails with Corruption, having held about what arrived rather
  // than the 64 MiB the header declared.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameChannel reader(fds[0]);
  std::string bytes;
  PutU32(&bytes, kMaxFramePayload);
  bytes.append(100, 'x');
  ASSERT_EQ(::send(fds[1], bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  ::close(fds[1]);
  const long before = PeakRssKb();
  ASSERT_GT(before, 0);
  auto frame = reader.ReadFrame();
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption)
      << frame.status().ToString();
  EXPECT_LT(PeakRssKb() - before, 8 * 1024);
}

/// Fault hook stalling the first `n` requests that reach `point` (CLEANs at
/// "clean.before_run" by default) until either the test flips `release` or
/// the request's cancel token trips — a model of a wedged worker that still
/// honours cooperative cancellation.
struct Stall {
  std::atomic<int> remaining;
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  const std::string point;

  explicit Stall(int n, std::string stall_point = "clean.before_run")
      : remaining(n), point(std::move(stall_point)) {}

  Daemon::FaultHook Hook() {
    return [this](std::string_view at, const common::CancelToken* token) {
      if (at != point) return Status::OK();
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
  EXPECT_EQ(daemon->Stats().deadline_exceeded, 1u);

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
  EXPECT_EQ(daemon->Stats().deadline_exceeded, 1u);
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
  EXPECT_EQ(daemon->Stats().cancelled, 1u);

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
  EXPECT_GE(daemon->Stats().cancelled, 1u);
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

TEST(FaultInjectionTest, PerRulesetInflightCapCountsDeltas) {
  // Every DELTA re-cleans its whole tracked relation, so it holds one of
  // its ruleset's in-flight slots: with a cap of 1, a CLEAN on the same
  // ruleset is refused while a DELTA runs (wedged at "delta.before_apply"),
  // and served once the DELTA has finished.
  ServeWorld* w = ServeWorld::Get();
  Stall stall(1, "delta.before_apply");
  DaemonOptions options;
  options.n_workers = 2;
  options.max_inflight_per_ruleset = 1;
  auto daemon = StartFaultDaemon(options, stall.Hook());

  Client holder = ConnectTo(*daemon);
  CleanRequest track;
  track.data_csv = w->dirty_csv;
  track.track = true;
  auto opened = holder.Clean(track);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  // The tracked CLEAN's worker frees its slot just after the reply, so the
  // DELTA may meet one refusal; backoff carries it through.
  RetryPolicy holder_policy;
  holder_policy.max_retries = 100;
  holder_policy.base_backoff_ms = 5;
  holder_policy.max_backoff_ms = 50;
  holder_policy.jitter_seed = 5;
  holder.set_retry_policy(holder_policy);
  DeltaRequest delta;
  delta.session_id = opened->session_id;
  delta.delete_ids = {2};
  Result<DeltaReply> delta_reply = Status::Internal("DELTA not answered");
  std::thread delta_thread([&] { delta_reply = holder.Delta(delta); });
  // Lift the stall and join the DELTA on every path, a failed ASSERT too.
  struct ReleaseAndJoin {
    Stall* stall;
    std::thread* thread;
    ~ReleaseAndJoin() {
      stall->release.store(true);
      if (thread->joinable()) thread->join();
    }
  } release_and_join{&stall, &delta_thread};
  ASSERT_TRUE(Eventually([&] { return stall.entered.load() == 1; }));

  // No retries: the refusal itself is observable.
  Client probe = ConnectTo(*daemon);
  CleanRequest request;
  request.data_csv = w->dirty_csv;
  auto refused = probe.Clean(request);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable)
      << refused.status().ToString();
  EXPECT_GT(probe.last_retry_after_ms(), 0u);

  stall.release.store(true);
  delta_thread.join();
  ASSERT_TRUE(delta_reply.ok()) << delta_reply.status().ToString();
  // The DELTA's worker frees the slot just after its reply, so the CLEAN
  // may meet one more refusal; backoff carries it through.
  RetryPolicy policy;
  policy.max_retries = 100;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 50;
  policy.jitter_seed = 7;
  probe.set_retry_policy(policy);
  auto served = probe.Clean(request);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->journal_csv, w->reference_journal);
}

TEST(FaultInjectionTest, DeltaRefusedAtTheCapAppliesNothing) {
  // The other direction: while a CLEAN holds the ruleset's one slot, a
  // DELTA on a tracked session of that ruleset is refused before it applies
  // an edit. Retried once the slot is free, the same DELTA is the session's
  // first (generation 1) and answers as the in-process session does.
  ServeWorld* w = ServeWorld::Get();
  auto relation = w->LoadDirty();
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  Session reference = w->reference->NewTrackedSession();
  ASSERT_TRUE(reference.Run(&*relation).ok());
  Delta erase;
  erase.deletes.push_back(2);
  ASSERT_TRUE(reference.ApplyDelta(erase).ok());
  std::ostringstream reference_journal;
  ASSERT_TRUE(reference.CanonicalJournal().WriteCsv(reference_journal).ok());

  // The tracked CLEAN passes the stall point unstalled; the next CLEAN
  // stalls there holding the slot.
  Stall stall(0);
  DaemonOptions options;
  options.n_workers = 2;
  options.max_inflight_per_ruleset = 1;
  auto daemon = StartFaultDaemon(options, stall.Hook());
  Client tracker = ConnectTo(*daemon);
  CleanRequest track;
  track.data_csv = w->dirty_csv;
  track.track = true;
  auto opened = tracker.Clean(track);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  // The tracked CLEAN's worker frees its slot just after the reply, so the
  // holder's CLEAN may meet one refusal; backoff carries it through.
  RetryPolicy policy;
  policy.max_retries = 100;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 50;
  policy.jitter_seed = 11;
  stall.remaining.store(1);
  Client holder = ConnectTo(*daemon);
  holder.set_retry_policy(policy);
  CleanRequest request;
  request.data_csv = w->dirty_csv;
  Result<CleanReply> held = Status::Internal("CLEAN not answered");
  std::thread holder_thread([&] { held = holder.Clean(request); });
  // Lift the stall and join the CLEAN on every path, a failed ASSERT too.
  struct ReleaseAndJoin {
    Stall* stall;
    std::thread* thread;
    ~ReleaseAndJoin() {
      stall->release.store(true);
      if (thread->joinable()) thread->join();
    }
  } release_and_join{&stall, &holder_thread};
  ASSERT_TRUE(Eventually([&] { return stall.entered.load() == 1; }));

  // No retries: the refusal itself is observable.
  DeltaRequest delta;
  delta.session_id = opened->session_id;
  delta.delete_ids = {2};
  auto refused = tracker.Delta(delta);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable)
      << refused.status().ToString();
  EXPECT_GT(tracker.last_retry_after_ms(), 0u);

  stall.release.store(true);
  holder_thread.join();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(held->journal_csv, w->reference_journal);

  // Had the refused DELTA deleted tuple 2, this one would fail as a delete
  // of a deleted tuple, at generation 2.
  tracker.set_retry_policy(policy);
  auto applied = tracker.Delta(delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->generation, 1u);
  EXPECT_EQ(applied->journal_csv, reference_journal.str());
  EXPECT_TRUE(tracker.CloseSession(opened->session_id).ok());
}

TEST(FaultInjectionTest, FailedDeltaReleasesItsInflightSlot) {
  // A DELTA takes its slot before its body is parsed, so a DELTA that then
  // fails must give the slot back: with a cap of 1, a leaked slot would
  // refuse every later request on the ruleset.
  ServeWorld* w = ServeWorld::Get();
  DaemonOptions options;
  options.n_workers = 2;
  options.max_inflight_per_ruleset = 1;
  auto daemon = StartFaultDaemon(options);
  Client client = ConnectTo(*daemon);
  // The worker frees a slot just after its reply, so a request sent right
  // after may meet one refusal; backoff carries it through, and a leaked
  // slot exhausts the retries.
  RetryPolicy policy;
  policy.max_retries = 40;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 50;
  policy.jitter_seed = 13;
  client.set_retry_policy(policy);
  CleanRequest track;
  track.data_csv = w->dirty_csv;
  track.track = true;
  auto opened = client.Clean(track);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  DeltaRequest unknown_tuple;
  unknown_tuple.session_id = opened->session_id;
  unknown_tuple.delete_ids = {1000000};
  auto rejected = client.Delta(unknown_tuple);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
      << rejected.status().ToString();
  DeltaRequest short_row;
  short_row.session_id = opened->session_id;
  short_row.update_ids = {0};
  short_row.updates_csv = "x\n";
  auto malformed = client.Delta(short_row);
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), StatusCode::kInvalidArgument)
      << malformed.status().ToString();

  DeltaRequest erase;
  erase.session_id = opened->session_id;
  erase.delete_ids = {2};
  auto applied = client.Delta(erase);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->generation, 1u);
  CleanRequest request;
  request.data_csv = w->dirty_csv;
  auto served = client.Clean(request);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->journal_csv, w->reference_journal);
  EXPECT_TRUE(client.CloseSession(opened->session_id).ok());
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
  // Every refusal was a CLEAN, so the overload rollup and the CLEAN
  // counter agree.
  const StatsSnapshot stats = daemon->Stats();
  EXPECT_EQ(stats.rejected, daemon->requests_rejected());
  EXPECT_EQ(stats.requests[Op::kClean].rejected, stats.rejected);
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

TEST(SnapshotServeTest, ColdStartWritesSnapshotAndRestartWarmStartsFromIt) {
  ServeWorld* w = ServeWorld::Get();
  const testing::ScratchDir scratch("uniclean_serve_snap");
  const std::string& snap_dir = scratch.path();
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
    ASSERT_EQ(stats->rulesets.size(), 1u);
    EXPECT_EQ(stats->rulesets[0].snapshot_source, "");  // a cold build
    EXPECT_GT(stats->string_pool.interned, 0u);
    EXPECT_GT(stats->string_pool.string_bytes, 0u);
  }
  // "Restart": a second daemon over the same files and snapshot dir must
  // warm-start from the file and serve byte-identical journals.
  auto daemon = StartFaultDaemon(options);
  Client client = ConnectTo(*daemon);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->rulesets.size(), 1u);
  EXPECT_EQ(stats->rulesets[0].snapshot_source, snap_path);
  EXPECT_GT(stats->rulesets[0].snapshot_load_s, 0.0);
  CleanRequest request;
  request.data_csv = w->dirty_csv;
  auto reply = client.Clean(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->journal_csv, w->reference_journal);
}

TEST(SnapshotServeTest, CorruptSnapshotFallsBackToColdBuildAndRewrites) {
  ServeWorld* w = ServeWorld::Get();
  const testing::ScratchDir scratch("uniclean_serve_snap");
  const std::string& snap_dir = scratch.path();
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
  ASSERT_EQ(stats->rulesets.size(), 1u);
  EXPECT_EQ(stats->rulesets[0].snapshot_source, "");  // a cold build
  // The cold build overwrote the bad file; journals are unaffected.
  EXPECT_TRUE(snapshot::Verify(snap_path).ok());
  CleanRequest request;
  request.data_csv = w->dirty_csv;
  auto reply = client.Clean(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->journal_csv, w->reference_journal);
}

TEST(SnapshotServeTest, ReloadRewritesTheSnapshot) {
  const testing::ScratchDir scratch("uniclean_serve_snap");
  const std::string& snap_dir = scratch.path();
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

// ---------------------------------------------------------------------------
// Seeded wire mutations
// ---------------------------------------------------------------------------

/// Request frame header: u32 payload length | u32 tag | u8 opcode | u32
/// deadline_ms (wire.h).
constexpr size_t kFrameHeaderBytes = 13;

void SetU32At(std::string* bytes, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[at + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

/// One request frame as it travels, built field by field, with the offsets
/// of its body's lp length fields.
struct WireFrame {
  std::string bytes;
  std::vector<size_t> lp_offsets;

  WireFrame(uint32_t tag, Op op) {
    PutU32(&bytes, 0);  // payload length, set by Done()
    PutU32(&bytes, tag);
    PutU8(&bytes, static_cast<uint8_t>(op));
    PutU32(&bytes, 0);  // deadline_ms: the server default
  }
  WireFrame& Lp(std::string_view s) {
    lp_offsets.push_back(bytes.size());
    PutLp(&bytes, s);
    return *this;
  }
  WireFrame& Done() {
    SetU32At(&bytes, 0, static_cast<uint32_t>(bytes.size() - 4));
    return *this;
  }
};

/// One seeded edit of a frame: a 1-4-byte overwrite, a truncation with the
/// length field patched, or an lp length swapped for a boundary value.
struct WireMutation {
  enum Kind { kOverwrite, kTruncate, kLpLength } kind = kOverwrite;
  size_t at = 0;  // overwrite start, or the lp length field
  std::string bytes;
  size_t cut = 0;
  uint32_t value = 0;

  std::string Apply(std::string frame) const {
    switch (kind) {
      case kOverwrite:
        frame.replace(at, bytes.size(), bytes);
        break;
      case kTruncate:
        frame.resize(frame.size() - cut);
        SetU32At(&frame, 0, static_cast<uint32_t>(frame.size() - 4));
        break;
      case kLpLength:
        SetU32At(&frame, at, value);
        break;
    }
    return frame;
  }

  std::string Describe() const {
    switch (kind) {
      case kOverwrite:
        return "overwrite " + std::to_string(bytes.size()) + " at " +
               std::to_string(at);
      case kTruncate:
        return "truncate " + std::to_string(cut);
      case kLpLength:
        return "lp length at " + std::to_string(at) + " = " +
               std::to_string(value);
    }
    return "";
  }
};

/// `n` seeded mutations of `frame`: every lp length swapped for 0, 2^31 - 1
/// and 2^32 - 1, 40 truncations (some reach into the header), and
/// overwrites alternating between the header and the body for the rest.
std::vector<WireMutation> PlanMutations(const WireFrame& frame,
                                        std::mt19937* rng, size_t n) {
  std::vector<WireMutation> plan;
  for (size_t at : frame.lp_offsets) {
    for (uint32_t value : {0u, 0x7FFFFFFFu, 0xFFFFFFFFu}) {
      WireMutation m;
      m.kind = WireMutation::kLpLength;
      m.at = at;
      m.value = value;
      plan.push_back(m);
    }
  }
  const size_t payload = frame.bytes.size() - 4;
  for (int i = 0; i < 40; ++i) {
    WireMutation m;
    m.kind = WireMutation::kTruncate;
    m.cut = 1 + (*rng)() % payload;
    plan.push_back(m);
  }
  while (plan.size() < n) {
    const bool header = plan.size() % 2 == 0 ||
                        frame.bytes.size() == kFrameHeaderBytes;
    const size_t lo = header ? 0 : kFrameHeaderBytes;
    const size_t hi = header ? kFrameHeaderBytes : frame.bytes.size();
    WireMutation m;
    m.at = lo + (*rng)() % (hi - lo);
    const size_t width =
        std::min<size_t>(1 + (*rng)() % 4, frame.bytes.size() - m.at);
    for (size_t k = 0; k < width; ++k) {
      m.bytes.push_back(static_cast<char>((*rng)() & 0xFF));
    }
    plan.push_back(m);
  }
  return plan;
}

/// What one mutant's connection saw after sending it.
struct WireOutcome {
  int replies = 0;      // frames that came back
  int successes = 0;    // of those, frames other than kError
  bool closed = false;  // the daemon closed the connection
};

/// Sends `frame` on `channel`, half-closes the connection and reads until
/// the daemon closes it (or a 10 s receive timeout trips).
WireOutcome SendHalfClosed(FrameChannel* channel, const std::string& frame) {
  WireOutcome outcome;
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(channel->fd(), frame.data() + sent,
                             frame.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return outcome;
    sent += static_cast<size_t>(n);
  }
  channel->ShutdownWrite();
  for (;;) {
    Result<Frame> reply = channel->ReadFrame();
    if (!reply.ok()) {
      outcome.closed = reply.status().code() == StatusCode::kNotFound;
      return outcome;
    }
    ++outcome.replies;
    outcome.successes += reply->op != Op::kError;
  }
}

TEST(ServeWireFuzz, SeededFrameMutationsGetAReplyOrACountedClose) {
  // At least 200 seeded mutants of each request opcode's valid frame, each
  // on its own connection, half-closed after sending. Every mutant must be
  // answered, or its connection closed with protocol_errors counting it;
  // no mutant may crash or wedge the daemon. DELTA and CLOSE_SESSION name a
  // tracked session their connection opened first.
  ServeWorld* w = ServeWorld::Get();
  DaemonOptions options;
  options.n_workers = 2;
  auto daemon = StartFaultDaemon(options);

  // A tiny HOSP slice: the header, three rows to clean, two more for edits.
  std::vector<std::string> lines;
  {
    std::istringstream in(w->dirty_csv);
    for (std::string line; std::getline(in, line) && lines.size() < 6;) {
      lines.push_back(line + "\n");
    }
  }
  ASSERT_EQ(lines.size(), 6u);
  const std::string slice = lines[0] + lines[1] + lines[2] + lines[3];

  const auto clean_frame = [&](uint32_t tag, uint8_t flags) {
    WireFrame f(tag, Op::kClean);
    PutU8(&f.bytes, flags);
    f.Lp("").Lp(slice).Lp("");
    return f.Done();
  };
  const auto delta_frame = [&](uint64_t session) {
    WireFrame f(2, Op::kDelta);
    PutU64(&f.bytes, session);
    f.Lp(lines[0] + lines[4]).Lp("0\n").Lp(lines[5]).Lp("2\n");
    return f.Done();
  };
  const auto close_frame = [](uint64_t session) {
    WireFrame f(2, Op::kCloseSession);
    PutU64(&f.bytes, session);
    return f.Done();
  };
  std::vector<std::pair<std::string, WireFrame>> bases = {
      {"PING", WireFrame(1, Op::kPing)},
      {"CLEAN", clean_frame(1, 0)},
      {"DELTA", delta_frame(0)},
      {"RELOAD", WireFrame(1, Op::kReload)},
      {"CLOSE_SESSION", close_frame(0)},
      {"CANCEL", WireFrame(1, Op::kCancel)},
  };
  bases[0].second.bytes += "unicleand?";
  bases[0].second.Done();
  bases[3].second.Lp("hosp").Done();
  PutU32(&bases[5].second.bytes, 7);
  bases[5].second.Done();

  std::mt19937 rng(0x5eed);
  constexpr size_t kPerOp = 200;
  int mutants = 0;
  int answered = 0;
  for (const auto& [name, base] : bases) {
    int succeeded = 0;
    const std::vector<WireMutation> plan = PlanMutations(base, &rng, kPerOp);
    ASSERT_EQ(plan.size(), kPerOp) << name;
    for (const WireMutation& mutation : plan) {
      auto fd = ConnectTcp("127.0.0.1", daemon->port());
      ASSERT_TRUE(fd.ok()) << fd.status().ToString();
      timeval tv{};
      tv.tv_sec = 10;
      ::setsockopt(*fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      FrameChannel channel(*fd);
      std::string frame = base.bytes;
      if (name == "DELTA" || name == "CLOSE_SESSION") {
        const WireFrame open = clean_frame(1, kCleanTrack);
        ASSERT_TRUE(channel
                        .WriteFrame(1, Op::kClean,
                                    open.bytes.substr(kFrameHeaderBytes))
                        .ok());
        uint64_t session = 0;
        for (;;) {
          auto reply = channel.ReadFrame();
          ASSERT_TRUE(reply.ok()) << reply.status().ToString();
          if (reply->op == Op::kCleanDone) {
            BodyReader done(reply->body);
            session = done.U64().value();
            break;
          }
          ASSERT_EQ(reply->op, Op::kJournalChunk);
        }
        ASSERT_NE(session, 0u);
        frame = (name == "DELTA" ? delta_frame(session) : close_frame(session))
                    .bytes;
      }
      const uint64_t errors_before = daemon->protocol_errors();
      const WireOutcome outcome =
          SendHalfClosed(&channel, mutation.Apply(frame));
      ++mutants;
      answered += outcome.replies > 0;
      succeeded += outcome.successes > 0;
      EXPECT_TRUE(outcome.closed)
          << name << ", " << mutation.Describe() << ": no close";
      EXPECT_TRUE(outcome.replies > 0 ||
                  daemon->protocol_errors() > errors_before)
          << name << ", " << mutation.Describe()
          << ": closed without a reply or a protocol error";
    }
    // Mutants that kept the request well formed (a new tag, a deadline)
    // reached the handler and succeeded.
    EXPECT_GT(succeeded, 0) << name;
  }
  EXPECT_EQ(mutants, static_cast<int>(bases.size() * kPerOp));
  EXPECT_GT(answered, 0);
  EXPECT_GT(daemon->protocol_errors(), 0u);
  Client client = ConnectTo(*daemon);
  EXPECT_TRUE(client.Ping().ok());
}

}  // namespace
}  // namespace serve
}  // namespace uniclean
