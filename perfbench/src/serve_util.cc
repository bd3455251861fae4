#include "serve_util.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <utility>

#include "data/csv.h"

namespace perfbench {

using namespace uniclean;  // NOLINT

ServeInputs WriteServeInputs(const Options& options, const gen::Dataset& ds) {
  ServeInputs in;
  serve::RulesetConfig& cfg = in.ruleset;
  cfg.name = "hosp";
  cfg.master_csv = options.work_dir + "/master.csv";
  cfg.rules_file = options.work_dir + "/rules.txt";
  cfg.schema_csv = options.work_dir + "/schema.csv";
  cfg.eta = 1.0;
  WriteFileOrDie(cfg.master_csv, RelationCsv(ds.master));
  WriteFileOrDie(cfg.rules_file, ds.rule_text);
  WriteFileOrDie(cfg.schema_csv,
                 RelationCsv(data::Relation(ds.dirty.schema_ptr())));
  Result<data::SchemaPtr> schema = data::InferCsvSchema(cfg.schema_csv, "data");
  if (!schema.ok()) Die("cannot read back the schema CSV");
  in.schema = std::move(schema).value();
  in.snapshot_dir = options.work_dir + "/snapshots";
  std::error_code ec;
  std::filesystem::remove_all(in.snapshot_dir, ec);
  if (!std::filesystem::create_directories(in.snapshot_dir, ec)) {
    Die("cannot create " + in.snapshot_dir);
  }
  return in;
}

std::shared_ptr<CleanEngine> BuildReferenceEngine(const ServeInputs& in) {
  const serve::RulesetConfig& cfg = in.ruleset;
  Result<std::shared_ptr<CleanEngine>> engine =
      EngineBuilder()
          .WithDataSchema(in.schema)
          .WithMasterCsv(cfg.master_csv)
          .WithRulesFile(cfg.rules_file)
          .WithEta(cfg.eta)
          .WithDelta1(cfg.delta1)
          .WithDelta2(cfg.delta2)
          .BuildEngine();
  if (!engine.ok()) {
    Die("reference engine build failed: " + engine.status().ToString());
  }
  (*engine)->Warmup();
  return std::move(engine).value();
}

std::unique_ptr<serve::Daemon> StartDaemon(const ServeInputs& in, int workers,
                                           const std::string& request_log,
                                           double* start_s) {
  serve::DaemonOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  options.n_workers = workers;
  options.snapshot_dir = in.snapshot_dir;
  options.request_log_path = request_log;
  auto daemon = std::make_unique<serve::Daemon>(
      options, std::vector<serve::RulesetConfig>{in.ruleset});
  const double t0 = NowS();
  const Status started = daemon->Start();
  *start_s = NowS() - t0;
  if (!started.ok()) Die("daemon start failed: " + started.ToString());
  return daemon;
}

serve::Client ConnectOrDie(const serve::Daemon& daemon) {
  Result<serve::Client> client =
      serve::Client::Connect("127.0.0.1", daemon.port());
  if (!client.ok()) Die("connect failed: " + client.status().ToString());
  return std::move(client).value();
}

std::vector<double> RoundTrips(const ServeWindow& w) {
  std::vector<double> out;
  for (const OpRecord& record : w.records) out.push_back(record.rtt_ms);
  return out;
}

/// Time slices behind throughput_ops_per_s: 3 s each in a 30 s window, long
/// enough to hold dozens of DELTAs.
constexpr int kThroughputSlices = 10;

double SliceThroughput(const ServeWindow& w, int slices) {
  const double width = w.elapsed_s / slices;
  std::vector<double> done(static_cast<size_t>(slices), 0.0);
  for (const OpRecord& record : w.records) {
    const double begin = record.start_s - w.start_s;
    const double duration = std::max(record.rtt_ms / 1000.0, 1e-9);
    for (int s = std::max(0, static_cast<int>(begin / width));
         s < slices && s * width < begin + duration; ++s) {
      const double overlap = std::min(begin + duration, (s + 1) * width) -
                             std::max(begin, s * width);
      if (overlap > 0.0) done[static_cast<size_t>(s)] += overlap / duration;
    }
  }
  for (double& ops : done) ops /= width;
  return Median(done);
}

void ReportServeEndToEnd(const std::vector<double>& setups,
                         const ServeWindow& w, double repair_f1,
                         double match_f1, RunResult* r) {
  const std::vector<double> latencies = RoundTrips(w);
  r->Set("setup_s", Median(setups), "s");
  r->Set("throughput_ops_per_s", SliceThroughput(w, kThroughputSlices),
         "1/s");
  r->Set("latency_p50_ms", Median(latencies), "ms");
  r->Set("latency_p90_ms", Quantile(latencies, 0.9), "ms");
  r->Set("peak_rss_mb", w.peak_rss_mb, "MiB");
  r->Set("repair_f1", repair_f1, "ratio");
  r->Set("match_f1", match_f1, "ratio");
}

uint64_t CleanBytesIn(const serve::CleanRequest& request) {
  // u8 flags, then length-prefixed ruleset, data CSV and confidence CSV.
  return 1 + 4 + request.ruleset.size() + 4 + request.data_csv.size() + 4 +
         request.confidence_csv.size();
}

uint64_t DeltaBytesIn(const serve::DeltaRequest& request) {
  // u64 session id, then length-prefixed inserts CSV, update id list,
  // updates CSV and delete id list (ids newline-terminated).
  auto ids_size = [](const std::vector<data::TupleId>& ids) {
    uint64_t n = 0;
    for (data::TupleId t : ids) n += std::to_string(t).size() + 1;
    return n;
  };
  return 8 + 4 + request.inserts_csv.size() + 4 + ids_size(request.update_ids) +
         4 + request.updates_csv.size() + 4 + ids_size(request.delete_ids);
}

namespace {

/// The number following `key` in a flat JSON text, searched from `from`.
double NumberAfter(const std::string& text, const std::string& key,
                   size_t from = 0) {
  const size_t at = text.find(key, from);
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

std::string StringAfter(const std::string& text, const std::string& key) {
  const size_t at = text.find(key);
  if (at == std::string::npos) return "";
  const size_t begin = at + key.size();
  const size_t end = text.find('"', begin);
  return text.substr(begin, end == std::string::npos ? end : end - begin);
}

}  // namespace

std::vector<LogLine> ReadRequestLog(const std::string& path, size_t expect) {
  const double deadline = NowS() + 10.0;
  for (;;) {
    std::vector<LogLine> lines;
    std::ifstream in(path);
    std::string text;
    while (std::getline(in, text)) {
      if (text.empty() || text.back() != '}') continue;  // partial line
      LogLine line;
      line.op = StringAfter(text, "\"op\": \"");
      line.tag = static_cast<uint32_t>(NumberAfter(text, "\"tag\": "));
      line.bytes_in = static_cast<uint64_t>(NumberAfter(text, "\"bytes_in\": "));
      line.bytes_out =
          static_cast<uint64_t>(NumberAfter(text, "\"bytes_out\": "));
      line.queue_ms = NumberAfter(text, "\"queue_wait_us\": ") / 1000.0;
      line.run_ms = NumberAfter(text, "\"run_us\": ") / 1000.0;
      line.status = StringAfter(text, "\"status\": \"");
      lines.push_back(std::move(line));
    }
    if (lines.size() >= expect) return lines;
    if (NowS() > deadline) {
      Die("request log holds " + std::to_string(lines.size()) + " of " +
          std::to_string(expect) + " expected lines");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

std::vector<Joined> JoinLog(const std::vector<OpRecord>& records,
                            const std::vector<LogLine>& lines,
                            const std::string& op) {
  std::multimap<std::pair<uint32_t, uint64_t>, const LogLine*> by_key;
  for (const LogLine& line : lines) {
    if (line.op == op) by_key.emplace(std::make_pair(line.tag, line.bytes_in),
                                      &line);
  }
  std::vector<Joined> joined;
  joined.reserve(records.size());
  for (const OpRecord& record : records) {
    auto it = by_key.find({record.tag, record.bytes_in});
    if (it == by_key.end()) {
      Die("no request-log line for " + op + " tag " +
          std::to_string(record.tag));
    }
    joined.push_back(Joined{record, *it->second});
    by_key.erase(it);
  }
  return joined;
}

EngineCounters ReadEngineCounters(const serve::Daemon& daemon) {
  const std::string stats = daemon.StatsJson();
  const size_t rulesets = stats.find("\"rulesets\"");
  const size_t memo = stats.find("\"memo\": {", rulesets);
  if (rulesets == std::string::npos || memo == std::string::npos) {
    Die("unexpected STATS document");
  }
  EngineCounters c;
  c.snapshot_load_s = NumberAfter(stats, "\"load_s\": ", rulesets);
  c.memo_bytes = NumberAfter(stats, "\"bytes\": ", memo);
  c.memo_hits = NumberAfter(stats, "\"hits\": ", memo);
  c.memo_misses = NumberAfter(stats, "\"misses\": ", memo);
  return c;
}

void ReportServeLayers(const std::vector<Joined>& joined, double window_s,
                       int workers, const EngineCounters& before,
                       const EngineCounters& after, double pool_growth,
                       const serve::Daemon& daemon, RunResult* r) {
  std::vector<double> queue, run, wire, in, out;
  double busy_ms = 0.0;
  for (const Joined& j : joined) {
    queue.push_back(j.line.queue_ms);
    run.push_back(j.line.run_ms);
    wire.push_back(j.record.rtt_ms - j.line.queue_ms - j.line.run_ms);
    in.push_back(static_cast<double>(j.line.bytes_in));
    out.push_back(static_cast<double>(j.line.bytes_out));
    busy_ms += j.line.run_ms;
  }
  r->Set("serve.queue_wait_ms_p50", Quantile(queue, 0.5), "ms");
  r->Set("serve.queue_wait_ms_p90", Quantile(queue, 0.9), "ms");
  r->Set("serve.run_ms_p50", Quantile(run, 0.5), "ms");
  r->Set("serve.run_ms_p90", Quantile(run, 0.9), "ms");
  r->Set("serve.wire_ms_p50", Quantile(wire, 0.5), "ms");
  r->Set("serve.worker_busy_ratio", busy_ms / (workers * window_s * 1000.0),
         "ratio");
  r->Set("serve.bytes_in_per_op", Mean(in), "bytes");
  r->Set("serve.bytes_out_per_op", Mean(out), "bytes");
  r->Set("serve.rejected", static_cast<double>(daemon.requests_rejected()),
         "count");
  r->Set("serve.protocol_errors",
         static_cast<double>(daemon.protocol_errors()), "count");

  const double ops = joined.empty() ? 1.0 : static_cast<double>(joined.size());
  const double hits = after.memo_hits - before.memo_hits;
  const double misses = after.memo_misses - before.memo_misses;
  r->Set("match.memo_hits", hits / ops, "count");
  r->Set("match.memo_misses", misses / ops, "count");
  r->Set("match.memo_hit_ratio",
         hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  r->Set("match.memo_bytes", after.memo_bytes, "bytes");
  r->Set("data.pool_interned", pool_growth / ops, "count");
}

void AddPhaseSummary(const std::string& summary, double fixes[3]) {
  static const char* const kPhases[3] = {"cRepair=", "eRepair=", "hRepair="};
  for (int i = 0; i < 3; ++i) {
    const size_t at = summary.find(kPhases[i]);
    if (at != std::string::npos) {
      fixes[i] += std::strtod(summary.c_str() + at + 8, nullptr);
    }
  }
}

double SnapshotBytes(const ServeInputs& in) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(
      in.snapshot_dir + "/" + in.ruleset.name + ".ucsnap", ec);
  if (ec) Die("no snapshot file in " + in.snapshot_dir);
  return static_cast<double>(size);
}

}  // namespace perfbench
