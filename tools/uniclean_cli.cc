// uniclean: command-line front end for the library, built on the
// uniclean::CleanEngine / Session API.
//
//   uniclean --data dirty.csv --master master.csv --rules rules.txt
//            [--confidence conf.csv] [--out repaired.csv]
//            [--report fixes.txt] [--journal fixes.csv]
//            [--eta 0.8] [--delta1 5] [--delta2 0.8]
//            [--phases c,e,h] [--check-consistency]
//            [--memo-stats] [--memo-cap N] [--delta edits.csv]
//
// The data / master CSV files must start with a header row naming the
// attributes; the rule file uses the syntax of rules/parser.h. The optional
// confidence CSV has the same shape as the data file with cells holding
// numbers in [0, 1]. The fix report (--report, text) and fix journal
// (--journal, CSV) list every repaired cell with its old/new value, the
// phase that produced the fix and the justifying rule. --memo-stats prints
// the engine's match-memo statistics after the run; --memo-cap bounds each
// memo map's resident entries (0 = unbounded), the long-lived-serving knob.
// --delta names a CSV (same header as the data file) whose rows are applied
// as *inserts* after the batch clean, through Session::ApplyDelta, which
// re-cleans the grown relation once from its pristine values; the journal
// written afterwards is the canonical (batch-equivalent) one.

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "uniclean/uniclean.h"

using namespace uniclean;  // NOLINT

namespace {

struct CliOptions {
  std::string data_path;
  std::string master_path;
  std::string rules_path;
  std::string confidence_path;
  std::string out_path = "repaired.csv";
  std::string report_path;
  std::string journal_path;
  double eta = 0.8;
  int delta1 = 5;
  double delta2 = 0.8;
  bool run_c = true, run_e = true, run_h = true;
  bool check_consistency = false;
  bool memo_stats = false;
  int memo_cap = 0;
  std::string delta_path;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --data D.csv --master M.csv --rules R.txt\n"
      "  [--confidence C.csv]      per-cell confidences (same shape as D)\n"
      "  [--out repaired.csv]      output path (default repaired.csv)\n"
      "  [--report fixes.txt]      per-cell fix provenance report (text)\n"
      "  [--journal fixes.csv]     per-cell fix provenance journal (CSV)\n"
      "  [--eta F] [--delta1 N] [--delta2 F]   thresholds (0.8 / 5 / 0.8)\n"
      "  [--phases c,e,h]          subset of phases to run\n"
      "  [--check-consistency]     verify the rules are consistent first\n"
      "  [--memo-stats]            print match-memo statistics after the run\n"
      "  [--memo-cap N]            cap resident entries per memo map (0 = "
      "unbounded)\n"
      "  [--delta E.csv]           rows (same header as D) inserted after "
      "the clean\n"
      "                            and re-cleaned incrementally\n",
      argv0);
}

/// Strict double parse: the whole string must be consumed.
bool ParseDouble(const char* flag, const char* v, double* out) {
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s expects a number, got '%s'\n", flag, v);
    return false;
  }
  *out = parsed;
  return true;
}

/// Strict int parse: the whole string must be consumed.
bool ParseInt(const char* flag, const char* v, int* out) {
  errno = 0;
  char* end = nullptr;
  long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || parsed < INT_MIN ||
      parsed > INT_MAX) {
    std::fprintf(stderr, "%s expects an integer, got '%s'\n", flag, v);
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

/// Parses a --phases spec like "c,e,h" or "ce". Unknown characters are an
/// error (they used to silently disable all phases).
bool ParsePhases(const char* v, CliOptions* opts) {
  opts->run_c = opts->run_e = opts->run_h = false;
  for (const char* p = v; *p != '\0'; ++p) {
    switch (*p) {
      case 'c':
        opts->run_c = true;
        break;
      case 'e':
        opts->run_e = true;
        break;
      case 'h':
        opts->run_h = true;
        break;
      case ',':
        break;
      default:
        std::fprintf(stderr,
                     "--phases: unknown phase character '%c' in '%s' "
                     "(expected a subset of c,e,h)\n",
                     *p, v);
        return false;
    }
  }
  return true;
}

std::string PhaseSetToString(const CliOptions& opts) {
  std::string out;
  auto add = [&out](const char* name) {
    if (!out.empty()) out += ", ";
    out += name;
  };
  if (opts.run_c) add("cRepair");
  if (opts.run_e) add("eRepair");
  if (opts.run_h) add("hRepair");
  return out.empty() ? "(none)" : out;
}

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--data") {
      if ((v = next()) == nullptr) return false;
      opts->data_path = v;
    } else if (arg == "--master") {
      if ((v = next()) == nullptr) return false;
      opts->master_path = v;
    } else if (arg == "--rules") {
      if ((v = next()) == nullptr) return false;
      opts->rules_path = v;
    } else if (arg == "--confidence") {
      if ((v = next()) == nullptr) return false;
      opts->confidence_path = v;
    } else if (arg == "--out") {
      if ((v = next()) == nullptr) return false;
      opts->out_path = v;
    } else if (arg == "--report") {
      if ((v = next()) == nullptr) return false;
      opts->report_path = v;
    } else if (arg == "--journal") {
      if ((v = next()) == nullptr) return false;
      opts->journal_path = v;
    } else if (arg == "--eta") {
      if ((v = next()) == nullptr) return false;
      if (!ParseDouble("--eta", v, &opts->eta)) return false;
    } else if (arg == "--delta1") {
      if ((v = next()) == nullptr) return false;
      if (!ParseInt("--delta1", v, &opts->delta1)) return false;
    } else if (arg == "--delta2") {
      if ((v = next()) == nullptr) return false;
      if (!ParseDouble("--delta2", v, &opts->delta2)) return false;
    } else if (arg == "--phases") {
      if ((v = next()) == nullptr) return false;
      if (!ParsePhases(v, opts)) return false;
    } else if (arg == "--check-consistency") {
      opts->check_consistency = true;
    } else if (arg == "--memo-stats") {
      opts->memo_stats = true;
    } else if (arg == "--delta") {
      if ((v = next()) == nullptr) return false;
      opts->delta_path = v;
    } else if (arg == "--memo-cap") {
      if ((v = next()) == nullptr) return false;
      if (!ParseInt("--memo-cap", v, &opts->memo_cap)) return false;
      if (opts->memo_cap < 0) {
        std::fprintf(stderr, "--memo-cap must be >= 0, got %d\n",
                     opts->memo_cap);
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !opts->data_path.empty() && !opts->master_path.empty() &&
         !opts->rules_path.empty();
}

int Run(const CliOptions& opts) {
  // Load the data relation here, keeping the original for the repair-cost
  // summary.
  auto schema = data::InferCsvSchema(opts.data_path, "data");
  if (!schema.ok()) {
    std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
    return 2;
  }
  auto d = data::ReadCsvFile(opts.data_path, schema.value());
  if (!d.ok()) {
    std::fprintf(stderr, "%s\n", d.status().ToString().c_str());
    return 2;
  }
  data::Relation original = d->Clone();

  // Per-cell confidences ride on the data relation before the run.
  if (!opts.confidence_path.empty()) {
    Status cs = data::ReadConfidenceCsvFile(opts.confidence_path, &d.value());
    if (!cs.ok()) {
      std::fprintf(stderr, "%s\n", cs.ToString().c_str());
      return 2;
    }
  }

  // The engine owns everything immutable (master, rules, indexes, memos);
  // the CLI's single run is one session against it.
  core::MdMatcherOptions matcher;
  matcher.memo_capacity = static_cast<size_t>(opts.memo_cap);
  auto engine = EngineBuilder()
                    .WithDataSchema(d->schema_ptr())
                    .WithMasterCsv(opts.master_path)
                    .WithRulesFile(opts.rules_path)
                    .WithEta(opts.eta)
                    .WithDelta1(opts.delta1)
                    .WithDelta2(opts.delta2)
                    .WithMatcherOptions(matcher)
                    .WithDefaultPhases(opts.run_c, opts.run_e, opts.run_h)
                    .CheckConsistency(opts.check_consistency)
                    .BuildEngine();
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    // Exit 3 distinguishes "the rules themselves are bad" for scripts;
    // anchored on the builder's exact inconsistency diagnostic so e.g. a
    // NotFound for a file *named* "inconsistent.txt" still exits 2.
    bool rules_inconsistent =
        engine.status().code() == StatusCode::kInvalidArgument &&
        engine.status().message().rfind("the rule set is inconsistent", 0) ==
            0;
    return rules_inconsistent ? 3 : 2;
  }
  std::printf("loaded %d data tuples, %d master tuples, %zu CFDs, %zu MDs\n",
              d->size(), (*engine)->master().size(),
              (*engine)->rules().cfds().size(),
              (*engine)->rules().mds().size());
  if (opts.check_consistency) std::printf("rules are consistent\n");
  std::printf("phases: %s\n", PhaseSetToString(opts).c_str());

  // Warm the engine's match environment up front so the index-build cost
  // is reported separately from the repair itself (the same split the
  // serving scenario sees: build once, then clean many batches warm).
  using Clock = std::chrono::steady_clock;
  auto t0 = Clock::now();
  (*engine)->Warmup();
  auto t1 = Clock::now();
  // A tracked session keeps the pristine copy ApplyDelta re-cleans from;
  // without --delta the plain session skips that clone.
  Session session = opts.delta_path.empty() ? (*engine)->NewSession()
                                            : (*engine)->NewTrackedSession();
  session.set_progress_callback([](const PhaseEvent& event) {
    if (event.kind == PhaseEvent::Kind::kPhaseFinished) {
      std::printf("  [%d/%d] %.*s: %d fixes\n", event.index + 1, event.total,
                  static_cast<int>(event.phase.size()), event.phase.data(),
                  event.stats->fixes);
    }
  });
  auto result = session.Run(&d.value());
  auto t2 = Clock::now();
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 2;
  }
  std::printf("match index build: %.3fs, repair: %.3fs\n",
              std::chrono::duration<double>(t1 - t0).count(),
              std::chrono::duration<double>(t2 - t1).count());

  if (!opts.delta_path.empty()) {
    auto edits = data::ReadCsvFile(opts.delta_path, d->schema_ptr());
    if (!edits.ok()) {
      std::fprintf(stderr, "%s\n", edits.status().ToString().c_str());
      return 2;
    }
    Delta delta;
    for (data::TupleId t = 0; t < edits->size(); ++t) {
      delta.inserts.push_back(edits->tuple(t));
    }
    auto t3 = Clock::now();
    auto dr = session.ApplyDelta(delta);
    auto t4 = Clock::now();
    if (!dr.ok()) {
      std::fprintf(stderr, "%s\n", dr.status().ToString().c_str());
      return 2;
    }
    // The inserts grew the relation; the cost baseline is their raw rows.
    for (const data::Tuple& tuple : delta.inserts) {
      original.AddTuple(tuple);
    }
    std::printf("delta: %zu inserts, %d tuples re-cleaned, %d fixes, %.3fs\n",
                delta.inserts.size(), dr->affected, dr->total_fixes(),
                std::chrono::duration<double>(t4 - t3).count());
  }

  for (const PhaseStats& stats : result->phases) {
    std::string counters;
    for (const auto& [name, value] : stats.counters) {
      counters += "  " + name + "=" + std::to_string(value);
    }
    std::printf("%s: %d fixes, %zu matches%s\n", stats.phase.c_str(),
                stats.fixes, stats.matches.size(), counters.c_str());
  }
  std::printf("total fixes: %d (journal entries: %zu)\n",
              result->total_fixes(), result->journal.size());
  std::printf("repair cost (Σ cf·dist): %.3f\n",
              core::RepairCost(original, d.value()));
  if (opts.memo_stats) {
    const core::MemoStats stats = (*engine)->MemoStats();
    std::printf(
        "memo stats: %llu entries, ~%llu KB, %llu hits, %llu misses, "
        "%llu evictions%s\n",
        static_cast<unsigned long long>(stats.entries),
        static_cast<unsigned long long>(stats.bytes / 1024),
        static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.evictions),
        opts.memo_cap > 0 ? " (capped)" : "");
  }
  if (const PhaseStats* h = result->phase(PhaseName(Phase::kHRepair))) {
    int64_t anomalies = h->counter("anomalies");
    if (anomalies > 0) {
      std::fprintf(stderr,
                   "warning: %lld unresolvable conflicts (contradictory "
                   "deterministic fixes or inconsistent rules)\n",
                   static_cast<long long>(anomalies));
    }
  }

  Status s = data::WriteCsvFile(opts.out_path, d.value());
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  std::printf("wrote %s\n", opts.out_path.c_str());

  // After a delta the batch journal is stale for the re-cleaned tuples;
  // the canonical journal is the batch-equivalent covering set.
  const FixJournal written_journal = opts.delta_path.empty()
                                         ? result->journal
                                         : session.CanonicalJournal();
  if (!opts.report_path.empty()) {
    s = written_journal.WriteTextFile(opts.report_path);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 2;
    }
    std::printf("wrote %s\n", opts.report_path.c_str());
  }
  if (!opts.journal_path.empty()) {
    s = written_journal.WriteCsvFile(opts.journal_path);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 2;
    }
    std::printf("wrote %s\n", opts.journal_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage(argv[0]);
    return 1;
  }
  return Run(opts);
}
