// serve_clean: warm steady-state serving. An in-process serve::Daemon with
// two workers warm-starts from a snapshot that a throwaway daemon wrote on
// graceful shutdown, so it carries memo heat the way a rolling restart
// would. A closed loop of workers + 1 client connections sends CLEANs of
// seeded 250-tuple slices of a 16k-tuple HOSP pool (one master); each
// client sends its next request only after the previous reply. With the
// memos hot, matching does little: CSV parsing, the repair phases, the
// journal encoding, framing and queueing carry the cost.

#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/string_pool.h"
#include "eval/metrics.h"
#include "serve/safe_csv.h"
#include "serve_util.h"
#include "snapshot/snapshot.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace uniclean;  // NOLINT

constexpr int kPoolTuples = 16000;
constexpr int kMaster = 1000;
constexpr int kSliceTuples = 250;
constexpr int kSetupRepeats = 9;

struct SliceRequest {
  serve::CleanRequest request;
  uint64_t bytes_in = 0;
  /// FixJournal::WriteCsv of an in-process Session::Run of the slice.
  std::string reference_journal;
};

struct Prepared {
  ServeInputs in;
  std::vector<SliceRequest> slices;
  double repair_f1 = 0.0;
  double match_f1 = 0.0;
};

/// Generates the pool, writes the ruleset files, computes every slice's
/// reference journal in process and leaves the reference engine's warm
/// state as the first snapshot.
Prepared Prepare(const Options& options) {
  gen::GeneratorConfig config;
  config.num_tuples = kPoolTuples;
  config.master_size = kMaster;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.seed = options.seed;
  gen::Dataset ds = gen::GenerateHosp(config);

  Prepared p;
  p.in = WriteServeInputs(options, ds);
  std::shared_ptr<CleanEngine> engine = BuildReferenceEngine(p.in);
  data::Relation repaired(p.in.schema);
  std::vector<std::pair<data::TupleId, data::TupleId>> matches;
  for (int begin = 0; begin < kPoolTuples; begin += kSliceTuples) {
    const data::Relation part = Slice(ds.dirty, begin, begin + kSliceTuples);
    SliceRequest slice;
    slice.request.data_csv = RelationCsv(part);
    slice.request.confidence_csv = ConfidenceCsv(part);
    slice.bytes_in = CleanBytesIn(slice.request);
    // Parse exactly as the daemon does, then run in process.
    Result<data::Relation> relation =
        serve::ParseRelationCsv(slice.request.data_csv, p.in.schema);
    if (!relation.ok() ||
        !serve::ApplyConfidenceCsv(slice.request.confidence_csv,
                                   &relation.value())
             .ok()) {
      Die("cannot parse a slice for the reference run");
    }
    Session session = engine->NewSession();
    Result<CleanResult> result = session.Run(&relation.value());
    if (!result.ok()) Die("reference run failed: " + result.status().ToString());
    std::ostringstream journal;
    if (!result->journal.WriteCsv(journal).ok()) Die("journal encode failed");
    slice.reference_journal = journal.str();
    for (const data::Tuple& t : relation->tuples()) repaired.AddTuple(t);
    for (const auto& [t, m] : result->AllMatches()) {
      matches.emplace_back(t + begin, m);
    }
    p.slices.push_back(std::move(slice));
  }
  p.repair_f1 = eval::RepairAccuracy(ds.dirty, repaired, ds.clean).F();
  p.match_f1 = eval::MatchAccuracy(matches, ds.true_matches).F();
  const Status written = snapshot::WriteSnapshot(
      *engine, p.in.snapshot_dir + "/" + p.in.ruleset.name + ".ucsnap");
  if (!written.ok()) Die("snapshot write failed: " + written.ToString());
  return p;
}

/// One untimed CLEAN of every slice, in order, over one connection: warms
/// the daemon and gates every journal. Adds the per-phase fix counts.
void Pass(const serve::Daemon& daemon, const Prepared& p, RunResult* r,
          double fixes[3]) {
  serve::Client client = ConnectOrDie(daemon);
  for (size_t s = 0; s < p.slices.size(); ++s) {
    Result<serve::CleanReply> reply = client.Clean(p.slices[s].request);
    if (!reply.ok()) Die("warm-up CLEAN failed: " + reply.status().ToString());
    if (reply->journal_csv != p.slices[s].reference_journal) {
      r->Mismatch("warm-up CLEAN of slice " + std::to_string(s) +
                  " differs from the in-process run");
    }
    if (fixes != nullptr) AddPhaseSummary(reply->phase_summary, fixes);
  }
}

ServeWindow RunWindow(const serve::Daemon& daemon, const Prepared& p,
                      const Options& options, Tracer& tracer, RunResult* r) {
  struct PerClient {
    serve::Client client;
    std::vector<OpRecord> records;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<size_t> mismatched;
  };
  std::vector<PerClient> clients(static_cast<size_t>(options.clients));
  for (PerClient& c : clients) c.client = ConnectOrDie(daemon);

  ServeWindow w;
  RssSampler rss;
  const double start = w.start_s = NowS();
  const double end = start + options.seconds / (options.trace ? 2 : 1);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      PerClient& c = clients[i];
      std::mt19937_64 rng(options.seed * 1000003ULL + i);
      for (int64_t n = 0; NowS() < end; ++n) {
        const size_t s = rng() % p.slices.size();
        const SliceRequest& slice = p.slices[s];
        const int64_t op = static_cast<int64_t>(i << 32) | n;
        const int span = tracer.Begin("serve.clean", -1, op);
        const double t0 = NowS();
        Result<uint32_t> tag = c.client.SendClean(slice.request);
        Result<serve::CleanReply> reply =
            tag.ok() ? c.client.AwaitClean(*tag)
                     : Result<serve::CleanReply>(tag.status());
        const double rtt_ms = (NowS() - t0) * 1000.0;
        tracer.End(span);
        ++c.attempted;
        if (!reply.ok()) {
          std::fprintf(stderr, "perfbench: CLEAN failed: %s\n",
                       reply.status().ToString().c_str());
          ++c.failed;
          continue;
        }
        if (reply->journal_csv != slice.reference_journal) {
          c.mismatched.push_back(s);
          continue;
        }
        c.records.push_back(OpRecord{*tag, slice.bytes_in, t0, rtt_ms});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  w.elapsed_s = NowS() - start;
  w.peak_rss_mb = rss.StopPeakMb();
  for (PerClient& c : clients) {
    r->attempted += c.attempted;
    r->failed += c.failed;
    if (c.failed > 0) r->correct = false;
    for (size_t s : c.mismatched) {
      r->Mismatch("CLEAN of slice " + std::to_string(s) +
                  " differs from the in-process run");
    }
    w.records.insert(w.records.end(), c.records.begin(), c.records.end());
  }
  if (w.records.empty()) Die("no CLEAN completed in the window");
  return w;
}

}  // namespace

RunResult RunServeClean(const Options& options) {
  const Prepared p = Prepare(options);
  std::printf(
      "# serve_clean: %zu slices of %d tuples, |Dm| = %d, closed loop of %d "
      "clients on %d workers\n",
      p.slices.size(), kSliceTuples, kMaster, options.clients,
      options.workers);
  RunResult r;

  // The throwaway daemon: warm pass, then a graceful shutdown persists the
  // memo heat it earned into the snapshot every later start loads.
  double start_s = 0.0;
  {
    auto throwaway = StartDaemon(p.in, options.workers, "", &start_s);
    Pass(*throwaway, p, &r, nullptr);
    throwaway->Shutdown();
  }

  // Set-up, repeated: Daemon::Start() warm from the snapshot.
  std::vector<double> starts;
  std::vector<double> loads;
  std::unique_ptr<serve::Daemon> daemon;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (daemon) daemon->Shutdown();
    daemon = StartDaemon(p.in, options.workers, "", &start_s);
    starts.push_back(start_s);
    loads.push_back(ReadEngineCounters(*daemon).snapshot_load_s);
  }

  double fixes[3] = {0.0, 0.0, 0.0};
  Pass(*daemon, p, &r, fixes);
  Tracer tracer;
  const ServeWindow untraced = RunWindow(*daemon, p, options, tracer, &r);
  const double untraced_p50 = Median(RoundTrips(untraced));

  if (!options.trace) {
    ReportServeEndToEnd(starts, untraced, p.repair_f1, p.match_f1, &r);
    return r;
  }

  // Traced half: a daemon that writes the request log, warmed by one pass
  // whose log lines are skipped.
  daemon->Shutdown();
  const std::string log_path = options.work_dir + "/requests.log";
  std::remove(log_path.c_str());
  daemon = StartDaemon(p.in, options.workers, log_path, &start_s);
  Pass(*daemon, p, &r, nullptr);
  ReadRequestLog(log_path, p.slices.size());
  const EngineCounters before = ReadEngineCounters(*daemon);
  const double pool_before =
      static_cast<double>(data::StringPool::Global().size());
  tracer.set_enabled(true);
  const ServeWindow traced = RunWindow(*daemon, p, options, tracer, &r);
  const EngineCounters after = ReadEngineCounters(*daemon);
  const double pool_growth =
      static_cast<double>(data::StringPool::Global().size()) - pool_before;
  std::vector<LogLine> lines = ReadRequestLog(
      log_path, p.slices.size() + traced.records.size());
  lines.erase(lines.begin(), lines.begin() + p.slices.size());
  const std::vector<Joined> joined = JoinLog(traced.records, lines, "CLEAN");
  ReportServeLayers(joined, traced.elapsed_s, options.workers, before, after,
                    pool_growth, *daemon, &r);
  // Fixes per slice, from the untimed pass.
  const double slices = static_cast<double>(p.slices.size());
  r.Set("phase.crepair_fixes", fixes[0] / slices, "count");
  r.Set("phase.erepair_fixes", fixes[1] / slices, "count");
  r.Set("phase.hrepair_fixes", fixes[2] / slices, "count");
  r.Set("snapshot.load_ms", Median(loads) * 1000.0, "ms");
  r.Set("snapshot.bytes", SnapshotBytes(p.in), "bytes");
  const double traced_p50 = Median(RoundTrips(traced));
  r.Set("trace.overhead_pct", (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        "%");
  if (!tracer.WriteJson(options.work_dir + "/trace.json")) {
    Die("cannot write the trace");
  }
  daemon->Shutdown();
  return r;
}

}  // namespace perfbench
