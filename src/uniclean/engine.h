// CleanEngine + Session: the library's run API. An engine owns everything
// immutable and expensive — the rule set, the master relation, the warm
// core::MatchEnvironment (MD indexes + sharded memos) and the validated
// pipeline configuration (thresholds and the selected phases of phase.h) —
// and stamps out cheap per-run Session handles (session.h) that carry only
// mutable run state. The master is static for the engine's whole life: a
// changed master means a new engine (unicleand's RELOAD builds one). This is
// the engine/session split HoloClean makes between its compiled signal model
// and per-cell scoring, applied to the paper's unified cleaning framework:
// pay the §5.2 index build once, then answer many cheap repair runs,
// concurrently.
//
//   auto engine = EngineBuilder()
//                     .WithMasterCsv("master.csv")
//                     .WithRulesFile("rules.txt")
//                     .WithDataSchema(schema)       // rules parse against it
//                     .BuildEngine();               // shared_ptr<CleanEngine>
//   if (!engine.ok()) { /* bad config */ }
//   (*engine)->Warmup();                            // optional: front-load
//   // serve: one cheap session per request, any number in flight
//   uniclean::Session session = (*engine)->NewSession();
//   auto result = session.Run(&batch);
//
// The engine binds no data: each Run repairs a caller-owned relation, so a
// one-shot job loads D itself (data::ReadCsvFile, plus
// data::ReadConfidenceCsvFile for per-cell confidences) and runs one
// session over it.
//
// Thread-safety contract: after BuildEngine() returns, every const method
// of CleanEngine is safe from any number of threads. Concurrent
// Session::Run() calls over *independent* data relations are data-race-free
// and byte-identical to serial execution — the shared memos cache pure
// functions of the static master data, so interleaving cannot change
// results. RunBatch() packages that: a worker pool of sessions over a batch
// of relations.

#ifndef UNICLEAN_UNICLEAN_ENGINE_H_
#define UNICLEAN_UNICLEAN_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/match_environment.h"
#include "data/relation.h"
#include "data/schema.h"
#include "rules/ruleset.h"
#include "uniclean/phase.h"
#include "uniclean/session.h"

namespace uniclean {

/// The shared, immutable cleaning engine. Created only via
/// EngineBuilder::BuildEngine() (always behind a shared_ptr — sessions keep
/// their engine alive through it). All const methods are thread-safe.
class CleanEngine : public std::enable_shared_from_this<CleanEngine> {
 public:
  CleanEngine(const CleanEngine&) = delete;
  CleanEngine& operator=(const CleanEngine&) = delete;

  /// A fresh per-run handle, no data bound yet. Cheap (no allocation beyond
  /// the handle); call per request in a serving loop.
  Session NewSession() const;

  /// Like NewSession(), but with delta tracking armed: the session's one
  /// Run() keeps the relation's pristine state, and Session::ApplyDelta then
  /// folds inserts/updates/deletes in and re-cleans the edited relation once
  /// from pristine values (see session.h). Run moves the caller's
  /// pre-cleaning relation into the session, so tracking costs no extra
  /// clone.
  Session NewTrackedSession() const;

  /// Cleans every relation of the batch, each in its own Session, using a
  /// worker pool of `n_threads` threads (values < 2 run the batch serially
  /// on the calling thread — the reference arm). Returns one Result per
  /// relation, index-matched to the input; per-relation failures (e.g. a
  /// schema mismatch) do not abort the rest of the batch. The relations
  /// must be pairwise distinct and not otherwise touched during the call.
  std::vector<Result<CleanResult>> RunBatch(data::Relation* const* relations,
                                            size_t count,
                                            int n_threads) const;
  std::vector<Result<CleanResult>> RunBatch(
      const std::vector<data::Relation*>& relations, int n_threads) const {
    return RunBatch(relations.data(), relations.size(), n_threads);
  }

  /// The engine's match environment (MD suffix-array / equality indexes +
  /// sharded memos), built on first use — by the first Run, or by Warmup().
  /// Valid for the engine's lifetime.
  const core::MatchEnvironment& environment() const;

  /// Builds the match environment now instead of lazily. Idempotent and
  /// thread-safe; lets servers front-load the index cost and benches report
  /// it separately.
  void Warmup() const { environment(); }

  /// Aggregated memo statistics across the environment's matchers (builds
  /// the environment if it does not exist yet). Live counters; safe while
  /// sessions are running.
  core::MemoStats MemoStats() const { return environment().MemoStats(); }

  const data::Relation& master() const { return *master_; }
  const rules::RuleSet& rules() const { return *rules_; }
  const PipelineConfig& config() const { return config_; }

  /// A cheap content fingerprint of everything that decides a repair,
  /// folded through the splitmix64 mixer: every normalized rule in rule-id
  /// order (kind, name, attribute ids, pattern constants as strings with a
  /// mark for wildcards, each MD clause's predicate kind, exact threshold
  /// bits and q, the MD actions), MdMatcherOptions::use_blocking, the
  /// master's live cells as strings and the pipeline thresholds. Phase
  /// selection, use_memos and memo_capacity change no match list and stay
  /// out. Two engines built from the same rules, master contents and
  /// thresholds report the same fingerprint. It is a snapshot's one
  /// identity check (FromSnapshot), and unicleand RELOAD compares it
  /// across an engine swap to tell a no-op reload from a real one.
  /// Folded on first use, O(master cells), then kept: the rules and master
  /// are static for the engine's life. Thread-safe.
  uint64_t Fingerprint() const;

  /// The phases every session of this engine runs, in paper order.
  const std::vector<Phase>& phases() const { return phases_; }

  /// Path of the snapshot this engine's match environment was loaded from
  /// (EngineBuilder::FromSnapshot), or empty for a cold-built environment.
  const std::string& snapshot_source() const { return snapshot_source_; }
  /// Wall seconds FromSnapshot spent loading (0 for a cold build).
  double snapshot_load_seconds() const { return snapshot_load_s_; }

 private:
  friend class EngineBuilder;
  CleanEngine() = default;

  // Owned storage is held behind unique_ptr so the aliasing raw pointers
  // stay valid regardless of how the shared_ptr<CleanEngine> travels.
  std::unique_ptr<data::Relation> owned_master_;
  std::unique_ptr<rules::RuleSet> owned_rules_;
  const data::Relation* master_ = nullptr;
  const rules::RuleSet* rules_ = nullptr;
  PipelineConfig config_;
  std::vector<Phase> phases_;
  // Lazily built, then immutable; call_once makes the build thread-safe
  // (two racing first Runs construct it exactly once). FromSnapshot installs
  // env_ before the engine escapes the builder; environment()'s lambda
  // checks for it, so a snapshot-warmed engine never cold-builds.
  mutable std::once_flag env_once_;
  mutable std::unique_ptr<core::MatchEnvironment> env_;
  mutable std::once_flag fingerprint_once_;
  mutable uint64_t fingerprint_ = 0;
  std::string snapshot_source_;
  double snapshot_load_s_ = 0.0;
};

/// Fluent single-use builder for CleanEngine. Every setter overwrites
/// earlier configuration of the same slot; BuildEngine() moves the
/// configuration out.
class EngineBuilder {
 public:
  EngineBuilder() = default;

  // --- data schema ---------------------------------------------------------
  /// Declares the schema of the data relations sessions will clean. Rule
  /// text (WithRuleText/WithRulesFile) parses against it; pre-parsed rules
  /// are checked against it when it is given.
  EngineBuilder& WithDataSchema(data::SchemaPtr schema);

  // --- master relation Dm --------------------------------------------------
  EngineBuilder& WithMaster(data::Relation master);
  /// Non-owning; the relation must outlive the engine and must not change
  /// while the engine lives (the match environment indexes it once).
  EngineBuilder& WithMaster(const data::Relation* master);
  EngineBuilder& WithMasterCsv(std::string path);

  // --- rules Θ = Σ ∪ Γ -----------------------------------------------------
  EngineBuilder& WithRules(rules::RuleSet rules);
  /// Non-owning; the rule set must outlive the engine.
  EngineBuilder& WithRules(const rules::RuleSet* rules);
  /// Rule program text (rules/parser.h syntax), parsed at build against
  /// the data/master schemas.
  EngineBuilder& WithRuleText(std::string text);
  /// Like WithRuleText, reading the program from a file at build.
  EngineBuilder& WithRulesFile(std::string path);

  // --- thresholds ----------------------------------------------------------
  EngineBuilder& WithEta(double eta);
  EngineBuilder& WithDelta1(int delta1);
  EngineBuilder& WithDelta2(double delta2);
  EngineBuilder& WithMatcherOptions(core::MdMatcherOptions matcher);

  // --- pipeline ------------------------------------------------------------
  /// Selects which of the paper's phases sessions run (all three by
  /// default); the selected ones always run in paper order.
  EngineBuilder& WithDefaultPhases(bool crepair, bool erepair, bool hrepair);

  // --- diagnostics ---------------------------------------------------------
  /// Verifies at build that the rules are consistent (§4.1); an
  /// inconsistent Θ fails the build.
  EngineBuilder& CheckConsistency(bool check = true);

  /// Validates the configuration and assembles the shared engine. Returns
  /// Status::InvalidArgument on bad configuration; I/O and parse failures
  /// propagate their own codes (NotFound, Corruption, …).
  Result<std::shared_ptr<CleanEngine>> BuildEngine();

  /// Like BuildEngine(), but warm-starts the match environment from a
  /// snapshot file written by snapshot::WriteSnapshot instead of paying the
  /// cold index build. The snapshot's string-pool section is loaded (and
  /// verified against the live pool) *before* the configured sources are
  /// read, so interned ids — and therefore journals — are byte-identical to
  /// a cold-built engine. Refuses with kDataLoss on a corrupt file (bad
  /// magic/CRC/truncation), kFailedPrecondition when the snapshot's format
  /// version, engine fingerprint (Fingerprint()) or pool generation do not
  /// match this build and configuration; in both cases no engine is
  /// returned and the caller
  /// should fall back to BuildEngine() against the same sources (the
  /// builder is left consumed — reconfigure a fresh one). Defined in the
  /// uniclean::snapshot library (snapshot/snapshot.cc): link
  /// uniclean::snapshot to use it.
  Result<std::shared_ptr<CleanEngine>> FromSnapshot(const std::string& path);

 private:
  data::SchemaPtr data_schema_;

  std::unique_ptr<data::Relation> master_owned_;
  const data::Relation* master_ptr_ = nullptr;
  std::string master_csv_;

  std::unique_ptr<rules::RuleSet> rules_owned_;
  const rules::RuleSet* rules_ptr_ = nullptr;
  std::string rule_text_;
  std::string rules_file_;

  PipelineConfig config_;
  std::vector<Phase> phases_ = {Phase::kCRepair, Phase::kERepair,
                                Phase::kHRepair};
  bool check_consistency_ = false;
};

}  // namespace uniclean

#endif  // UNICLEAN_UNICLEAN_ENGINE_H_
