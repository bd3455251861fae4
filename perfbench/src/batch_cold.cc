// batch_cold: what a CLI user pays per job. Every job runs in a fresh
// string pool and does what uniclean_cli does for one invocation: parse D
// (plus its confidences) and Dm from CSV, build the engine from rule text,
// warm the match environment, run the c/e/h pipeline and encode the fix
// journal. The memos start cold in every job, so the matching layer and the
// index build carry most of the cost. Jobs run back to back on one thread.
//
// A run draws 20 datasets from its seed and cycles the jobs through them in
// whole rounds: one draw's cost differs from the next, and a run should
// describe the program, not the draw. Jobs on one dataset repeat the same
// work, so each dataset's cost is the median of its jobs, and the latency
// quantiles are taken over the datasets: a stall of the shared host then
// slows a job or two rather than the reported p90, which over all jobs
// swung by a fifth between runs on the host stalls alone.

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "data/csv.h"
#include "data/string_pool.h"
#include "eval/metrics.h"
#include "gen/dataset.h"
#include "trace.h"
#include "uniclean/uniclean.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace uniclean;  // NOLINT

constexpr int kTuples = 500;
constexpr int kMaster = 1000;
constexpr int kDatasets = 20;

/// The generated job inputs, as a CLI user would hand them over.
struct Inputs {
  std::string data_csv;
  std::string master_csv;
  std::string clean_csv;  // ground truth, read only to score
  std::string confidence_path;
  std::string rule_text;
  data::SchemaPtr data_schema;
  data::SchemaPtr master_schema;
  std::vector<std::pair<data::TupleId, data::TupleId>> true_matches;
};

struct JobOutcome {
  bool ok = false;
  double wall_ms = 0.0;
  /// ReadCsv(Dm) + BuildEngine + Warmup, also counted inside wall_ms.
  double setup_s = 0.0;
  std::string journal_csv;
  core::MemoStats memo;
  size_t pool_interned = 0;
  std::vector<PhaseStats> phases;
  double repair_f1 = 0.0;
  double match_f1 = 0.0;
};

JobOutcome Failed(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: batch job %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  return JobOutcome{};
}

/// One job. Only the span from pool creation to the encoded journal is
/// timed; scoring and teardown happen after it.
JobOutcome RunJob(const Inputs& in, Tracer& tracer, int64_t op, bool score) {
  JobOutcome out;
  const double t0 = NowS();
  const int job = tracer.Begin("batch.job", -1, op);
  data::ScopedStringPool pool;

  int span = tracer.Begin("data.read_csv", job, op);
  std::istringstream d_in(in.data_csv);
  Result<data::Relation> d = data::ReadCsv(d_in, in.data_schema);
  Status confidences =
      d.ok() ? data::ReadConfidenceCsvFile(in.confidence_path, &d.value())
             : d.status();
  tracer.End(span);
  if (!confidences.ok()) return Failed("read D", confidences);

  const double setup0 = NowS();
  span = tracer.Begin("data.read_csv", job, op);
  std::istringstream m_in(in.master_csv);
  Result<data::Relation> dm = data::ReadCsv(m_in, in.master_schema);
  tracer.End(span);
  if (!dm.ok()) return Failed("read Dm", dm.status());

  span = tracer.Begin("engine.build", job, op);
  Result<std::shared_ptr<CleanEngine>> engine =
      EngineBuilder()
          .WithDataSchema(in.data_schema)
          .WithMaster(std::move(dm).value())
          .WithRuleText(in.rule_text)
          .WithEta(1.0)
          .BuildEngine();
  tracer.End(span);
  if (!engine.ok()) return Failed("engine build", engine.status());

  span = tracer.Begin("match.index_build", job, op);
  (*engine)->Warmup();
  tracer.End(span);
  out.setup_s = NowS() - setup0;

  Session session = (*engine)->NewSession();
  int run_span = -1;
  double phase_start = 0.0;
  if (tracer.enabled()) {
    session.set_progress_callback([&](const PhaseEvent& event) {
      if (event.kind == PhaseEvent::Kind::kPhaseStarted) {
        phase_start = NowS();
      } else {
        tracer.Add("phase." + std::string(event.phase), run_span, op,
                   phase_start, NowS());
      }
    });
  }
  run_span = tracer.Begin("session.run", job, op);
  Result<CleanResult> result = session.Run(&d.value());
  tracer.End(run_span);
  if (!result.ok()) return Failed("session run", result.status());

  span = tracer.Begin("journal.encode", job, op);
  std::ostringstream journal;
  Status written = result->journal.WriteCsv(journal);
  out.journal_csv = journal.str();
  tracer.End(span);
  tracer.End(job);
  out.wall_ms = (NowS() - t0) * 1000.0;
  if (!written.ok()) return Failed("journal encode", written);

  out.memo = (*engine)->MemoStats();
  out.pool_interned = pool.pool().size();
  out.phases = result->phases;
  if (score) {
    // Ground truth is read into this job's pool: values compare by id.
    std::istringstream clean_in(in.clean_csv);
    std::istringstream dirty_in(in.data_csv);
    Result<data::Relation> truth = data::ReadCsv(clean_in, in.data_schema);
    Result<data::Relation> dirty = data::ReadCsv(dirty_in, in.data_schema);
    if (!truth.ok() || !dirty.ok()) return Failed("score", truth.status());
    out.repair_f1 = eval::RepairAccuracy(*dirty, *d, *truth).F();
    out.match_f1 =
        eval::MatchAccuracy(result->AllMatches(), in.true_matches).F();
  }
  out.ok = true;
  return out;
}

struct Window {
  std::vector<JobOutcome> jobs;  // successful jobs only
  /// Per dataset, the wall time of each of its successful jobs, in ms.
  std::vector<std::vector<double>> job_ms;
  /// Wall time of each round of one job per dataset.
  std::vector<double> round_s;
  double peak_rss_mb = 0.0;
};

/// Runs jobs back to back for about `seconds`, in whole rounds of one job
/// per dataset, so every round does the same work and every dataset has as
/// many jobs as the next: the window ends at the round boundary nearest to
/// `seconds`. Gates every journal against the first job's on the same
/// dataset.
Window RunWindow(const std::vector<Inputs>& inputs,
                 const std::vector<JobOutcome>& firsts, Tracer& tracer,
                 double seconds, int64_t* next_op, RunResult* result) {
  Window w;
  w.job_ms.resize(inputs.size());
  RssSampler rss;
  const double start = NowS();
  double round_s = 0.0;
  while (NowS() - start + round_s / 2 < seconds) {
    const double round_start = NowS();
    for (size_t dataset = 0; dataset < inputs.size(); ++dataset) {
      const int64_t op = (*next_op)++;
      JobOutcome job = RunJob(inputs[dataset], tracer, op, /*score=*/false);
      ++result->attempted;
      if (!job.ok) {
        ++result->failed;
        result->correct = false;
        continue;
      }
      if (job.journal_csv != firsts[dataset].journal_csv) {
        result->Mismatch("batch job " + std::to_string(op) +
                         " journal differs from the first job's on dataset " +
                         std::to_string(dataset));
        continue;
      }
      job.journal_csv.clear();
      w.job_ms[dataset].push_back(job.wall_ms);
      w.jobs.push_back(std::move(job));
    }
    round_s = NowS() - round_start;
    w.round_s.push_back(round_s);
  }
  w.peak_rss_mb = rss.StopPeakMb();
  return w;
}

/// Each dataset's job wall time: the median over its jobs in the window.
std::vector<double> DatasetLatencies(const Window& w) {
  std::vector<double> out;
  for (const std::vector<double>& ms : w.job_ms) {
    if (!ms.empty()) out.push_back(Median(ms));
  }
  return out;
}

double PhaseFixes(const JobOutcome& job, const std::string& phase) {
  for (const PhaseStats& stats : job.phases) {
    if (stats.phase == phase) return stats.fixes;
  }
  return 0.0;
}

/// Mean over the first jobs (one per dataset) of a deterministic count.
template <typename F>
double PerJob(const std::vector<JobOutcome>& firsts, F count) {
  double sum = 0.0;
  for (const JobOutcome& job : firsts) sum += count(job);
  return sum / static_cast<double>(firsts.size());
}

/// Median over the traced jobs of the per-job summed span time.
double MedianSpanMs(const Tracer& tracer, const std::string& name) {
  std::vector<double> values;
  for (const auto& [op, ms] : tracer.MsByOp(name)) values.push_back(ms);
  return Median(values);
}

void ReportLayers(const Tracer& tracer, const Window& traced,
                  const std::vector<JobOutcome>& firsts,
                  double untraced_p50_ms, RunResult* r) {
  r->Set("data.read_csv_ms", MedianSpanMs(tracer, "data.read_csv"), "ms");
  r->Set("engine.build_ms", MedianSpanMs(tracer, "engine.build"), "ms");
  r->Set("match.index_build_ms", MedianSpanMs(tracer, "match.index_build"),
         "ms");
  r->Set("session.run_ms", MedianSpanMs(tracer, "session.run"), "ms");
  const std::map<int64_t, double> c = tracer.MsByOp("phase.cRepair");
  const std::map<int64_t, double> e = tracer.MsByOp("phase.eRepair");
  const std::map<int64_t, double> h = tracer.MsByOp("phase.hRepair");
  std::vector<double> other;
  for (const auto& [op, ms] : tracer.MsByOp("session.run")) {
    auto get = [op = op](const std::map<int64_t, double>& m) {
      auto it = m.find(op);
      return it == m.end() ? 0.0 : it->second;
    };
    other.push_back(ms - get(c) - get(e) - get(h));
  }
  r->Set("phase.crepair_ms", MedianSpanMs(tracer, "phase.cRepair"), "ms");
  r->Set("phase.erepair_ms", MedianSpanMs(tracer, "phase.eRepair"), "ms");
  r->Set("phase.hrepair_ms", MedianSpanMs(tracer, "phase.hRepair"), "ms");
  r->Set("session.other_ms", Median(other), "ms");
  r->Set("journal.encode_ms", MedianSpanMs(tracer, "journal.encode"), "ms");

  // Counts are deterministic per seed: every job on a dataset does
  // identical work, so they come from the first job on each.
  r->Set("journal.bytes", PerJob(firsts, [](const JobOutcome& j) {
           return static_cast<double>(j.journal_csv.size());
         }),
         "bytes");
  r->Set("data.pool_interned", PerJob(firsts, [](const JobOutcome& j) {
           return static_cast<double>(j.pool_interned);
         }),
         "count");
  const double hits = PerJob(firsts, [](const JobOutcome& j) {
    return static_cast<double>(j.memo.hits);
  });
  const double misses = PerJob(firsts, [](const JobOutcome& j) {
    return static_cast<double>(j.memo.misses);
  });
  r->Set("match.memo_hits", hits, "count");
  r->Set("match.memo_misses", misses, "count");
  r->Set("match.memo_hit_ratio",
         hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  r->Set("match.memo_bytes", PerJob(firsts, [](const JobOutcome& j) {
           return static_cast<double>(j.memo.bytes);
         }),
         "bytes");
  const std::pair<const char*, const char*> kFixes[] = {
      {"cRepair", "phase.crepair_fixes"},
      {"eRepair", "phase.erepair_fixes"},
      {"hRepair", "phase.hrepair_fixes"}};
  for (const auto& [phase, name] : kFixes) {
    r->Set(name, PerJob(firsts, [phase = phase](const JobOutcome& j) {
             return PhaseFixes(j, phase);
           }),
           "count");
  }

  r->Set("trace.span_coverage", Median(tracer.ChildCoverage("batch.job")),
         "ratio");
  const double traced_p50 = Median(DatasetLatencies(traced));
  r->Set("trace.overhead_pct",
         (traced_p50 - untraced_p50_ms) / untraced_p50_ms * 100.0, "%");
}

}  // namespace

RunResult RunBatchCold(const Options& options) {
  std::vector<Inputs> inputs;
  for (int j = 0; j < kDatasets; ++j) {
    gen::GeneratorConfig config;
    config.num_tuples = kTuples;
    config.master_size = kMaster;
    config.noise_rate = 0.06;
    config.dup_rate = 0.4;
    config.seed = options.seed * kDatasets + static_cast<uint64_t>(j);
    gen::Dataset ds = gen::GenerateHosp(config);
    Inputs in;
    in.data_csv = RelationCsv(ds.dirty);
    in.master_csv = RelationCsv(ds.master);
    in.clean_csv = RelationCsv(ds.clean);
    in.confidence_path =
        options.work_dir + "/confidence" + std::to_string(j) + ".csv";
    WriteFileOrDie(in.confidence_path, ConfidenceCsv(ds.dirty));
    in.rule_text = ds.rule_text;
    in.data_schema = ds.dirty.schema_ptr();
    in.master_schema = ds.master.schema_ptr();
    in.true_matches = ds.true_matches;
    inputs.push_back(std::move(in));
  }
  std::printf(
      "# batch_cold: %d datasets of |D| = %d, |Dm| = %d; one job at a "
      "time\n",
      kDatasets, kTuples, kMaster);

  // The first job on each dataset is untimed: it scores the repairs
  // against the ground truth and fixes the journal later jobs must repeat.
  Tracer tracer;
  int64_t next_op = 0;
  std::vector<JobOutcome> firsts;
  for (const Inputs& in : inputs) {
    firsts.push_back(RunJob(in, tracer, next_op++, /*score=*/true));
    if (!firsts.back().ok) Die("a first batch job failed");
  }

  RunResult r;
  const double half = options.trace ? options.seconds / 2 : options.seconds;
  const Window untraced =
      RunWindow(inputs, firsts, tracer, half, &next_op, &r);
  if (untraced.jobs.empty()) Die("no batch job completed");
  const double untraced_p50 = Median(DatasetLatencies(untraced));
  if (options.trace) {
    tracer.set_enabled(true);
    const Window traced =
        RunWindow(inputs, firsts, tracer, half, &next_op, &r);
    if (traced.jobs.empty()) Die("no traced batch job completed");
    ReportLayers(tracer, traced, firsts, untraced_p50, &r);
    if (!tracer.WriteJson(options.work_dir + "/trace.json")) {
      Die("cannot write the trace");
    }
    return r;
  }

  std::vector<double> setup;
  for (const JobOutcome& j : untraced.jobs) setup.push_back(j.setup_s);
  r.Set("setup_s", Median(setup), "s");
  // Jobs per second in the median round: a stall of a few seconds on a
  // shared host slows one round rather than the whole figure.
  r.Set("throughput_ops_per_s",
        static_cast<double>(inputs.size()) / Median(untraced.round_s), "1/s");
  r.Set("latency_p50_ms", untraced_p50, "ms");
  r.Set("latency_p90_ms", Quantile(DatasetLatencies(untraced), 0.9), "ms");
  r.Set("peak_rss_mb", untraced.peak_rss_mb, "MiB");
  r.Set("repair_f1",
        PerJob(firsts, [](const JobOutcome& j) { return j.repair_f1; }),
        "ratio");
  r.Set("match_f1",
        PerJob(firsts, [](const JobOutcome& j) { return j.match_f1; }),
        "ratio");
  return r;
}

}  // namespace perfbench
