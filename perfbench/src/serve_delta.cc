// serve_delta: writes beside reads, through the same daemon layer. One
// client connection holds tracked sessions over their own HOSP relations
// and streams DELTAs built from held-out tuples into them in turn:
// a seeded mix of updates, inserts and deletes that keeps every relation at
// its size (±1). About 70% of batches carry k = 1 edit and 30% carry
// k = 16. Every reply re-encodes the session's whole canonical journal, so
// reply bytes scale with |D|, not with k. The only workload that reaches
// Session::ApplyDelta.
//
// The client takes turns over 16 sessions: one relation's DELTA cost hangs
// on how far its violation groups let a closure widen, which differs
// between relations by up to a factor of two, and a run should describe
// ApplyDelta rather than one draw. With 8 sessions, the p50 of one seed
// differed from the next by up to 1.6x. One connection rather than two: a
// run then keeps fewer threads busy on a shared host, and the in-process
// replay behind the gate, which redoes every DELTA, takes half as long.

#include <algorithm>
#include <cstdio>
#include <iterator>
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

constexpr int kSessionsPerClient = 16;
constexpr int kStanding = 1000;
constexpr int kHeldOut = 500;
constexpr int kMaster = 1000;
constexpr int kLargeK = 16;
constexpr int kSetupRepeats = 5;

/// One session's inputs.
struct Stream {
  /// The tracked CLEAN that opens the session.
  serve::CleanRequest open;
  /// FixJournal::WriteCsv of an in-process Session::Run of it.
  std::string reference_journal;
  /// CSV header line of the data schema, newline-terminated.
  std::string header;
  /// Held-out tuples, one header-less CSV row each (newline-terminated).
  std::vector<std::string> rows;
};

struct Prepared {
  ServeInputs in;
  std::shared_ptr<CleanEngine> reference;
  /// Client c's session j streams p.streams[c * kSessionsPerClient + j].
  std::vector<Stream> streams;
  double repair_f1 = 0.0;
  double match_f1 = 0.0;
};

Result<data::Relation> ParseOpen(const serve::CleanRequest& open,
                                 const data::SchemaPtr& schema) {
  UC_ASSIGN_OR_RETURN(data::Relation relation,
                      serve::ParseRelationCsv(open.data_csv, schema));
  UC_RETURN_IF_ERROR(
      serve::ApplyConfidenceCsv(open.confidence_csv, &relation));
  return relation;
}

Prepared Prepare(const Options& options) {
  const int per_session = kStanding + kHeldOut;
  const int sessions = options.clients * kSessionsPerClient;
  gen::GeneratorConfig config;
  config.num_tuples = sessions * per_session;
  config.master_size = kMaster;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.seed = options.seed;
  gen::Dataset ds = gen::GenerateHosp(config);

  Prepared p;
  p.in = WriteServeInputs(options, ds);
  p.reference = BuildReferenceEngine(p.in);
  const std::string header = RelationCsv(data::Relation(p.in.schema));
  data::Relation dirty(p.in.schema), repaired(p.in.schema),
      truth(p.in.schema);
  std::vector<std::pair<data::TupleId, data::TupleId>> found, true_matches;
  for (int s = 0; s < sessions; ++s) {
    const int base = s * per_session;
    const data::Relation standing = Slice(ds.dirty, base, base + kStanding);
    Stream stream;
    stream.open.data_csv = RelationCsv(standing);
    stream.open.confidence_csv = ConfidenceCsv(standing);
    stream.open.track = true;
    stream.header = header;
    for (int t = base + kStanding; t < base + per_session; ++t) {
      stream.rows.push_back(
          RelationCsv(Slice(ds.dirty, t, t + 1)).substr(header.size()));
    }
    Result<data::Relation> relation = ParseOpen(stream.open, p.in.schema);
    if (!relation.ok()) Die("cannot parse a standing relation");
    Session session = p.reference->NewSession();
    Result<CleanResult> result = session.Run(&relation.value());
    if (!result.ok()) Die("reference run failed: " + result.status().ToString());
    std::ostringstream journal;
    if (!result->journal.WriteCsv(journal).ok()) Die("journal encode failed");
    stream.reference_journal = journal.str();
    p.streams.push_back(std::move(stream));

    // Quality over every standing relation, concatenated.
    const int offset = dirty.size();
    for (int t = 0; t < kStanding; ++t) {
      dirty.AddTuple(ds.dirty.tuple(base + t));
      truth.AddTuple(ds.clean.tuple(base + t));
      repaired.AddTuple(relation->tuple(t));
    }
    for (const auto& [t, m] : result->AllMatches()) {
      found.emplace_back(t + offset, m);
    }
    for (const auto& [t, m] : ds.true_matches) {
      if (t >= base && t < base + kStanding) {
        true_matches.emplace_back(t - base + offset, m);
      }
    }
  }
  p.repair_f1 = eval::RepairAccuracy(dirty, repaired, truth).F();
  p.match_f1 = eval::MatchAccuracy(found, true_matches).F();
  const Status written = snapshot::WriteSnapshot(
      *p.reference, p.in.snapshot_dir + "/" + p.in.ruleset.name + ".ucsnap");
  if (!written.ok()) Die("snapshot write failed: " + written.ToString());
  return p;
}

/// One tracked session and the edits sent into it so far.
struct SessionState {
  uint64_t id = 0;
  std::vector<data::TupleId> live;
  size_t cursor = 0;  // next held-out row
  /// Successful DELTAs in order, with the ids the daemon minted.
  std::vector<serve::DeltaRequest> sent;
  std::vector<std::vector<data::TupleId>> minted;
  std::string last_journal;
};

/// One client connection and its sessions.
struct ClientState {
  serve::Client client;
  /// Tag of the connection's next request (serve::Client numbers its
  /// requests 1, 2, ...; nothing here retries).
  uint32_t next_tag = 1;
  std::vector<SessionState> sessions;
  std::vector<OpRecord> records;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Opens every client's sessions on `daemon`, gating each journal; adds the
/// per-phase fix counts to `fixes` when given.
std::vector<ClientState> OpenSessions(const serve::Daemon& daemon,
                                      const Prepared& p, int clients,
                                      RunResult* r, double* fixes) {
  std::vector<ClientState> out(static_cast<size_t>(clients));
  for (size_t c = 0; c < out.size(); ++c) {
    ClientState& client = out[c];
    client.client = ConnectOrDie(daemon);
    for (int j = 0; j < kSessionsPerClient; ++j) {
      const size_t index = c * kSessionsPerClient + static_cast<size_t>(j);
      const Stream& stream = p.streams[index];
      Result<serve::CleanReply> reply = client.client.Clean(stream.open);
      ++client.next_tag;
      if (!reply.ok()) {
        Die("tracked CLEAN failed: " + reply.status().ToString());
      }
      if (reply->journal_csv != stream.reference_journal) {
        r->Mismatch("tracked CLEAN of session " + std::to_string(index) +
                    " differs from the in-process run");
      }
      if (fixes != nullptr) AddPhaseSummary(reply->phase_summary, fixes);
      SessionState session;
      session.id = reply->session_id;
      for (data::TupleId t = 0; t < kStanding; ++t) session.live.push_back(t);
      client.sessions.push_back(std::move(session));
    }
  }
  return out;
}

/// A random live id not yet used by this batch.
data::TupleId PickLive(const SessionState& s, std::mt19937_64& rng,
                       const std::vector<data::TupleId>& used) {
  for (;;) {
    const data::TupleId t = s.live[rng() % s.live.size()];
    if (std::find(used.begin(), used.end(), t) == used.end()) return t;
  }
}

serve::DeltaRequest NextBatch(SessionState& s, const Stream& stream,
                              std::mt19937_64& rng, int* k) {
  *k = rng() % 10 < 3 ? kLargeK : 1;
  serve::DeltaRequest request;
  request.session_id = s.id;
  std::vector<data::TupleId> used;
  int size = static_cast<int>(s.live.size());
  for (int e = 0; e < *k; ++e) {
    const std::string& row = stream.rows[s.cursor % stream.rows.size()];
    if (rng() % 2 == 0) {  // update
      const data::TupleId t = PickLive(s, rng, used);
      used.push_back(t);
      request.update_ids.push_back(t);
      request.updates_csv += row;
      ++s.cursor;
      continue;
    }
    // Insert or delete, steering |D| back to kStanding.
    const bool insert =
        size < kStanding || (size == kStanding && rng() % 2 == 0);
    if (insert) {
      if (request.inserts_csv.empty()) request.inserts_csv = stream.header;
      request.inserts_csv += row;
      ++s.cursor;
      ++size;
    } else {
      const data::TupleId t = PickLive(s, rng, used);
      used.push_back(t);
      request.delete_ids.push_back(t);
      --size;
    }
  }
  return request;
}

/// Each client sends DELTAs to its sessions in turn, one in flight.
ServeWindow RunWindow(std::vector<ClientState>& clients, const Prepared& p,
                      const Options& options, Tracer& tracer) {
  ServeWindow w;
  RssSampler rss;
  const double start = w.start_s = NowS();
  const double end = start + options.seconds / (options.trace ? 2 : 1);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      ClientState& c = clients[i];
      std::mt19937_64 rng(options.seed * 7919ULL + i);
      for (int64_t n = 0; NowS() < end; ++n) {
        const size_t j = static_cast<size_t>(n) % c.sessions.size();
        SessionState& s = c.sessions[j];
        int k = 0;
        serve::DeltaRequest request = NextBatch(
            s, p.streams[i * kSessionsPerClient + j], rng, &k);
        const uint32_t tag = c.next_tag++;
        const int span =
            tracer.Begin("serve.delta", -1, static_cast<int64_t>(i << 32) | n);
        const double t0 = NowS();
        Result<serve::DeltaReply> reply = c.client.Delta(request);
        const double rtt_ms = (NowS() - t0) * 1000.0;
        tracer.End(span);
        ++c.attempted;
        if (!reply.ok()) {
          std::fprintf(stderr, "perfbench: DELTA failed: %s\n",
                       reply.status().ToString().c_str());
          ++c.failed;
          break;  // the session's edit history is no longer known
        }
        for (data::TupleId t : request.delete_ids) {
          s.live.erase(std::find(s.live.begin(), s.live.end(), t));
        }
        s.live.insert(s.live.end(), reply->inserted_ids.begin(),
                      reply->inserted_ids.end());
        c.records.push_back(OpRecord{
            tag, DeltaBytesIn(request), t0, rtt_ms, k,
            static_cast<int>(reply->affected),
            static_cast<int>(reply->refinement_rounds)});
        s.sent.push_back(std::move(request));
        s.minted.push_back(reply->inserted_ids);
        s.last_journal = std::move(reply->journal_csv);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  w.elapsed_s = NowS() - start;
  w.peak_rss_mb = rss.StopPeakMb();
  for (const ClientState& c : clients) {
    w.records.insert(w.records.end(), c.records.begin(), c.records.end());
  }
  if (w.records.empty()) Die("no DELTA completed in the window");
  return w;
}

/// The edits of one sent DELTA, parsed exactly as the daemon parses them.
Delta ParseDelta(const serve::DeltaRequest& d, const data::SchemaPtr& schema) {
  Delta delta;
  if (!d.updates_csv.empty()) {
    Result<std::vector<data::Tuple>> rows =
        serve::ParseTupleRows(d.updates_csv, schema, /*expect_header=*/false);
    if (!rows.ok() || rows->size() != d.update_ids.size()) {
      Die("cannot parse sent updates");
    }
    for (size_t j = 0; j < rows->size(); ++j) {
      delta.updates.emplace_back(d.update_ids[j], std::move((*rows)[j]));
    }
  }
  delta.deletes = d.delete_ids;
  if (!d.inserts_csv.empty()) {
    Result<std::vector<data::Tuple>> rows =
        serve::ParseTupleRows(d.inserts_csv, schema, /*expect_header=*/true);
    if (!rows.ok()) Die("cannot parse sent inserts");
    delta.inserts = std::move(rows).value();
  }
  return delta;
}

/// Rows in exactly one of two CSV texts.
size_t DifferingRows(const std::string& a, const std::string& b) {
  auto lines = [](const std::string& text) {
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) out.push_back(line);
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<std::string> la = lines(a), lb = lines(b);
  std::vector<std::string> diff;
  std::set_symmetric_difference(la.begin(), la.end(), lb.begin(), lb.end(),
                                std::back_inserter(diff));
  return diff.size();
}

struct SessionCheck {
  std::string mismatch;  // empty when the gate held
  /// Canonical fix-set rows the final state and a cold batch over the
  /// final relation do not share (reported, not gated).
  size_t batch_divergent_rows = 0;
};

/// The final-state gate. An in-process tracked session replays the edits
/// sent into one session; every insert must get the id the daemon minted,
/// and the daemon's last reply must carry exactly the replay's canonical
/// journal. The replay's canonical fix set is also compared with a cold
/// batch over the final relation, rebuilt from the same edits. ApplyDelta
/// does not converge to that batch on this workload yet, so the difference
/// is reported rather than gated.
SessionCheck CheckSession(const SessionState& s, const Stream& stream,
                          const Prepared& p) {
  SessionCheck check;
  if (s.sent.empty()) return check;  // the tracked CLEAN was gated already
  Result<data::Relation> tracked = ParseOpen(stream.open, p.in.schema);
  Result<data::Relation> final_relation = ParseOpen(stream.open, p.in.schema);
  Session replay = p.reference->NewTrackedSession();
  if (!tracked.ok() || !final_relation.ok() ||
      !replay.Run(&tracked.value()).ok()) {
    Die("cannot replay a standing session");
  }
  for (size_t i = 0; i < s.sent.size(); ++i) {
    const Delta delta = ParseDelta(s.sent[i], p.in.schema);
    for (const auto& [t, tuple] : delta.updates) {
      final_relation->mutable_tuple(t) = tuple;
    }
    for (data::TupleId t : delta.deletes) final_relation->EraseTuple(t);
    for (const data::Tuple& tuple : delta.inserts) {
      final_relation->AddTuple(tuple);
    }
    Result<DeltaResult> dr = replay.ApplyDelta(delta);
    if (!dr.ok()) Die("replayed DELTA failed: " + dr.status().ToString());
    if (dr->inserted_ids != s.minted[i]) {
      check.mismatch = "DELTA " + std::to_string(i) +
                       " minted other insert ids than a replay";
      return check;
    }
  }
  std::ostringstream replayed;
  if (!replay.CanonicalJournal().WriteCsv(replayed).ok()) {
    Die("journal encode failed");
  }
  if (replayed.str() != s.last_journal) {
    check.mismatch =
        "final canonical journal differs from an in-process replay of the "
        "same edits";
  }
  Session batch = p.reference->NewTrackedSession();
  if (!batch.Run(&final_relation.value()).ok()) Die("final batch run failed");
  check.batch_divergent_rows =
      DifferingRows(replay.CanonicalJournal().CanonicalFixSetCsv(),
                    batch.CanonicalJournal().CanonicalFixSetCsv());
  return check;
}

/// Folds a window's clients into the result counters and runs the gates,
/// one replay thread per session.
void Settle(std::vector<ClientState>& clients, const Prepared& p,
            RunResult* r) {
  std::vector<SessionCheck> checks(p.streams.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    if (clients[c].failed > 0) continue;
    for (size_t j = 0; j < clients[c].sessions.size(); ++j) {
      const size_t index = c * kSessionsPerClient + j;
      threads.emplace_back([&, c, j, index] {
        checks[index] =
            CheckSession(clients[c].sessions[j], p.streams[index], p);
      });
    }
  }
  for (std::thread& t : threads) t.join();
  size_t sent = 0;
  size_t divergent = 0;
  for (size_t c = 0; c < clients.size(); ++c) {
    const ClientState& client = clients[c];
    r->attempted += client.attempted;
    r->failed += client.failed;
    if (client.failed > 0) r->correct = false;
    for (size_t j = 0; j < client.sessions.size(); ++j) {
      const SessionCheck& check = checks[c * kSessionsPerClient + j];
      if (!check.mismatch.empty()) {
        r->Mismatch("session " + std::to_string(c * kSessionsPerClient + j) +
                    ": " + check.mismatch);
      }
      sent += client.sessions[j].sent.size();
      divergent += check.batch_divergent_rows;
    }
  }
  std::printf(
      "# serve_delta: %zu DELTAs replayed in process; %zu canonical fix-set "
      "rows differ from cold batches over the final relations (ApplyDelta "
      "convergence: reported, not gated)\n",
      sent, divergent);
}

void ReportDeltaLayers(const std::vector<Joined>& joined, RunResult* r) {
  double affected = 0.0, edits = 0.0;
  std::vector<double> rounds, k1, k16;
  for (const Joined& j : joined) {
    affected += j.record.affected;
    edits += j.record.k;
    rounds.push_back(j.record.rounds);
    (j.record.k == 1 ? k1 : k16).push_back(j.line.run_ms);
  }
  r->Set("delta.affected_per_edit", edits > 0 ? affected / edits : 0.0,
         "tuples");
  r->Set("delta.rounds_mean", Mean(rounds), "count");
  r->Set("delta.run_ms_k1_p50", Median(k1), "ms");
  r->Set("delta.run_ms_k16_p50", Median(k16), "ms");
}

}  // namespace

RunResult RunServeDelta(const Options& options) {
  const Prepared p = Prepare(options);
  std::printf(
      "# serve_delta: %d clients x %d tracked sessions over %d tuples each, "
      "fed DELTAs (70%% k=1, 30%% k=%d) from %d held-out tuples each, "
      "|Dm| = %d, %d workers\n",
      options.clients, kSessionsPerClient, kStanding, kLargeK, kHeldOut,
      kMaster, options.workers);
  RunResult r;

  // The throwaway daemon: opens the sessions once, then a graceful shutdown
  // persists the memo heat into the snapshot every later start loads.
  double start_s = 0.0;
  double fixes[3] = {0.0, 0.0, 0.0};
  {
    auto throwaway = StartDaemon(p.in, options.workers, "", &start_s);
    OpenSessions(*throwaway, p, options.clients, &r, fixes);
    throwaway->Shutdown();
  }

  // Set-up, repeated: Daemon::Start() plus opening the standing sessions.
  std::vector<double> setups;
  std::vector<double> loads;
  std::unique_ptr<serve::Daemon> daemon;
  std::vector<ClientState> clients;
  for (int i = 0; i < kSetupRepeats; ++i) {
    clients.clear();
    if (daemon) daemon->Shutdown();
    const double t0 = NowS();
    daemon = StartDaemon(p.in, options.workers, "", &start_s);
    clients = OpenSessions(*daemon, p, options.clients, &r, nullptr);
    setups.push_back(NowS() - t0);
    loads.push_back(ReadEngineCounters(*daemon).snapshot_load_s);
  }

  Tracer tracer;
  const ServeWindow untraced = RunWindow(clients, p, options, tracer);
  Settle(clients, p, &r);
  const double untraced_p50 = Median(RoundTrips(untraced));

  if (!options.trace) {
    ReportServeEndToEnd(setups, untraced, p.repair_f1, p.match_f1, &r);
    return r;
  }

  // Traced half: a daemon that writes the request log, with fresh sessions
  // whose opening CLEANs are skipped in the log.
  clients.clear();
  daemon->Shutdown();
  const std::string log_path = options.work_dir + "/requests.log";
  std::remove(log_path.c_str());
  daemon = StartDaemon(p.in, options.workers, log_path, &start_s);
  clients = OpenSessions(*daemon, p, options.clients, &r, nullptr);
  ReadRequestLog(log_path, p.streams.size());
  const EngineCounters before = ReadEngineCounters(*daemon);
  const double pool_before =
      static_cast<double>(data::StringPool::Global().size());
  tracer.set_enabled(true);
  const ServeWindow traced = RunWindow(clients, p, options, tracer);
  const EngineCounters after = ReadEngineCounters(*daemon);
  const double pool_growth =
      static_cast<double>(data::StringPool::Global().size()) - pool_before;
  Settle(clients, p, &r);
  std::vector<LogLine> lines =
      ReadRequestLog(log_path, p.streams.size() + traced.records.size());
  lines.erase(lines.begin(), lines.begin() + p.streams.size());
  const std::vector<Joined> joined = JoinLog(traced.records, lines, "DELTA");
  ReportServeLayers(joined, traced.elapsed_s, options.workers, before, after,
                    pool_growth, *daemon, &r);
  ReportDeltaLayers(joined, &r);
  // Fixes per standing relation, from its tracked CLEAN.
  const double relations = static_cast<double>(p.streams.size());
  r.Set("phase.crepair_fixes", fixes[0] / relations, "count");
  r.Set("phase.erepair_fixes", fixes[1] / relations, "count");
  r.Set("phase.hrepair_fixes", fixes[2] / relations, "count");
  r.Set("snapshot.load_ms", Median(loads) * 1000.0, "ms");
  r.Set("snapshot.bytes", SnapshotBytes(p.in), "bytes");
  const double traced_p50 = Median(RoundTrips(traced));
  r.Set("trace.overhead_pct", (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        "%");
  if (!tracer.WriteJson(options.work_dir + "/trace.json")) {
    Die("cannot write the trace");
  }
  clients.clear();
  daemon->Shutdown();
  return r;
}

}  // namespace perfbench
