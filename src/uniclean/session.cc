#include "uniclean/session.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/crepair.h"
#include "core/erepair.h"
#include "core/hrepair.h"
#include "core/match_environment.h"
#include "uniclean/detail.h"
#include "uniclean/engine.h"

namespace uniclean {

namespace {

/// A FixObserver that appends journal entries under the given phase name,
/// resolving rule ids to names against the run's rule set.
core::FixObserver JournalObserver(FixJournal* journal,
                                  const rules::RuleSet* rules,
                                  const data::Relation* data,
                                  std::string_view phase) {
  return [journal, rules, data, phase](data::TupleId t, data::AttributeId a,
                                       const data::Value& old_value,
                                       const data::Value& new_value,
                                       rules::RuleId rule) {
    FixEntry entry;
    entry.tuple = t;
    entry.attr = a;
    entry.attribute = data->schema().attribute_name(a);
    entry.old_value = old_value;
    entry.new_value = new_value;
    entry.phase = std::string(phase);
    if (rule >= 0 && rule < rules->num_rules()) {
      entry.rule = rules->rule_name(rule);
    }
    journal->Append(std::move(entry));
  };
}

/// The distinct pairs of an engine's match log, sorted. The engines log a
/// pair once per pass and per MD that matched it, so the log can be many
/// times longer than the matches it records.
std::vector<std::pair<data::TupleId, data::TupleId>> DistinctMatches(
    const std::vector<std::pair<data::TupleId, data::TupleId>>& log) {
  std::vector<std::pair<data::TupleId, data::TupleId>> distinct = log;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  distinct.shrink_to_fit();
  return distinct;
}

/// Runs one phase's core engine over `data`, journaling every fix, and
/// reports its fixes, distinct matches and counters. An interrupted engine
/// (cancelled, expired) returns its interrupt status. `matches` is the
/// run's match table over `data`, shared by every phase of the run.
Result<PhaseStats> RunPhase(Phase phase, data::Relation* data,
                            const CleanEngine& engine, FixJournal* journal,
                            const common::CancelToken* cancel,
                            core::RunMatchTable* matches) {
  const core::MatchEnvironment& env = engine.environment();
  const PipelineConfig& config = engine.config();
  core::FixObserver on_fix =
      JournalObserver(journal, &engine.rules(), data, PhaseName(phase));
  PhaseStats out;
  switch (phase) {
    case Phase::kCRepair: {
      core::CRepairOptions opts;
      opts.eta = config.eta;
      opts.on_fix = std::move(on_fix);
      opts.cancel = cancel;
      const core::CRepairStats stats = core::CRepair(data, env, opts, matches);
      UC_RETURN_IF_ERROR(stats.interrupt);
      out.fixes = stats.deterministic_fixes;
      out.matches = DistinctMatches(stats.md_matches);
      out.counters = {{"confidence_upgrades", stats.confidence_upgrades},
                      {"rule_applications", stats.rule_applications},
                      {"conflicts", stats.conflicts}};
      break;
    }
    case Phase::kERepair: {
      core::ERepairOptions opts;
      opts.delta1 = config.delta1;
      opts.delta2 = config.delta2;
      opts.eta = config.eta;
      opts.on_fix = std::move(on_fix);
      opts.cancel = cancel;
      const core::ERepairStats stats = core::ERepair(data, env, opts, matches);
      UC_RETURN_IF_ERROR(stats.interrupt);
      out.fixes = stats.reliable_fixes;
      out.matches = DistinctMatches(stats.md_matches);
      out.counters = {
          {"groups_resolved", stats.groups_resolved},
          {"groups_skipped_high_entropy", stats.groups_skipped_high_entropy},
          {"passes", stats.passes}};
      break;
    }
    case Phase::kHRepair: {
      core::HRepairOptions opts;
      opts.on_fix = std::move(on_fix);
      opts.cancel = cancel;
      const core::HRepairStats stats = core::HRepair(data, env, opts, matches);
      UC_RETURN_IF_ERROR(stats.interrupt);
      out.fixes = stats.possible_fixes;
      out.matches = DistinctMatches(stats.md_matches);
      out.counters = {{"merges", stats.merges},
                      {"nulls_introduced", stats.nulls_introduced},
                      {"passes", stats.passes},
                      {"anomalies", stats.anomalies}};
      break;
    }
  }
  out.phase = std::string(PhaseName(phase));
  return out;
}

/// Applies `delta` to `relation` in the order updates, deletes, inserts and
/// returns the ids minted for the inserts. InvalidArgument on an unknown or
/// dead tuple id, a tuple deleted twice or an arity mismatch, with part of
/// the edits applied.
Result<std::vector<data::TupleId>> ApplyEdits(const Delta& delta,
                                              data::Relation* relation) {
  const int arity = relation->schema().arity();
  for (const auto& [t, tup] : delta.updates) {
    if (t < 0 || t >= relation->size()) {
      return Status::InvalidArgument("ApplyDelta: update of unknown tuple " +
                                     std::to_string(t));
    }
    if (!relation->live(t)) {
      return Status::InvalidArgument("ApplyDelta: update of deleted tuple " +
                                     std::to_string(t));
    }
    if (tup.arity() != arity) {
      return Status::InvalidArgument(
          "ApplyDelta: update arity " + std::to_string(tup.arity()) +
          " does not match the data schema arity " + std::to_string(arity));
    }
    relation->mutable_tuple(t) = tup;
  }
  std::vector<data::TupleId> deletes = delta.deletes;
  std::sort(deletes.begin(), deletes.end());
  auto repeated = std::adjacent_find(deletes.begin(), deletes.end());
  if (repeated != deletes.end()) {
    return Status::InvalidArgument("ApplyDelta: tuple " +
                                   std::to_string(*repeated) +
                                   " is deleted twice");
  }
  for (data::TupleId t : delta.deletes) {
    if (t < 0 || t >= relation->size()) {
      return Status::InvalidArgument("ApplyDelta: delete of unknown tuple " +
                                     std::to_string(t));
    }
    if (!relation->live(t)) {
      return Status::InvalidArgument(
          "ApplyDelta: delete of already-deleted tuple " + std::to_string(t));
    }
    relation->EraseTuple(t);
  }
  std::vector<data::TupleId> inserted_ids;
  inserted_ids.reserve(delta.inserts.size());
  for (const data::Tuple& tup : delta.inserts) {
    if (tup.arity() != arity) {
      return Status::InvalidArgument(
          "ApplyDelta: insert arity " + std::to_string(tup.arity()) +
          " does not match the data schema arity " + std::to_string(arity));
    }
    inserted_ids.push_back(relation->AddTuple(tup));
  }
  return inserted_ids;
}

}  // namespace

// ---------------------------------------------------------------------------
// CleanResult
// ---------------------------------------------------------------------------

int CleanResult::total_fixes() const {
  int total = 0;
  for (const PhaseStats& stats : phases) total += stats.fixes;
  return total;
}

const PhaseStats* CleanResult::phase(std::string_view name) const {
  for (const PhaseStats& stats : phases) {
    if (stats.phase == name) return &stats;
  }
  return nullptr;
}

std::vector<std::pair<data::TupleId, data::TupleId>> CleanResult::AllMatches()
    const {
  std::vector<std::pair<data::TupleId, data::TupleId>> all;
  for (const PhaseStats& stats : phases) {
    all.insert(all.end(), stats.matches.begin(), stats.matches.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

// ---------------------------------------------------------------------------
// DeltaResult
// ---------------------------------------------------------------------------

int DeltaResult::total_fixes() const {
  int total = 0;
  for (const PhaseStats& stats : phases) total += stats.fixes;
  return total;
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Result<std::vector<PhaseStats>> Session::ExecutePipeline(data::Relation* data,
                                                         FixJournal* journal) {
  const std::vector<Phase>& phases = engine_->phases();
  const common::CancelToken* cancel = cancel_.get();
  core::RunMatchTable matches(engine_->environment(), *data);
  std::vector<PhaseStats> executed;
  const int total = static_cast<int>(phases.size());
  executed.reserve(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) {
    UC_RETURN_IF_ERROR(common::PollCancel(cancel));
    const Phase phase = phases[static_cast<size_t>(i)];
    if (progress_) {
      PhaseEvent event;
      event.kind = PhaseEvent::Kind::kPhaseStarted;
      event.index = i;
      event.total = total;
      event.phase = PhaseName(phase);
      event.data = data;
      progress_(event);
    }
    Result<PhaseStats> stats =
        RunPhase(phase, data, *engine_, journal, cancel, &matches);
    if (!stats.ok()) {
      return internal::Annotate(
          stats.status(), "phase '" + std::string(PhaseName(phase)) + "': ");
    }
    executed.push_back(std::move(stats).value());
    if (progress_) {
      PhaseEvent event;
      event.kind = PhaseEvent::Kind::kPhaseFinished;
      event.index = i;
      event.total = total;
      event.phase = PhaseName(phase);
      event.stats = &executed.back();
      event.data = data;
      progress_(event);
    }
  }
  return executed;
}

Result<CleanResult> Session::Run(data::Relation* data) {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition(
        "Session::Run: empty session (obtain one from "
        "CleanEngine::NewSession)");
  }
  if (data == nullptr) {
    return Status::InvalidArgument("Run(data): relation must not be null");
  }
  if (!internal::SchemaMatches(engine_->rules().data_schema(),
                               data->schema())) {
    return Status::InvalidArgument(
        "Run(data): relation schema " +
        internal::DescribeSchema(data->schema()) +
        " does not match the rule set's data schema " +
        internal::DescribeSchema(engine_->rules().data_schema()));
  }

  // All-or-nothing: the phases clean a copy that replaces the caller's
  // relation only on success, so a failed, cancelled or expired run applies
  // no fix — never a partially repaired relation — and a tracked session
  // keeps its earlier tracking.
  CleanResult result;
  data::Relation scratch = data->Clone();
  UC_ASSIGN_OR_RETURN(result.phases,
                      ExecutePipeline(&scratch, &result.journal));
  if (track_deltas_) {
    // The caller's pre-cleaning relation becomes the pristine copy that
    // ApplyDelta re-cleans from, exactly as a batch run over the edited
    // relation would.
    pristine_ = std::make_unique<data::Relation>(std::move(*data));
    tracked_ = data;
    journal_ = result.journal;
    generation_ = 0;
  }
  *data = std::move(scratch);
  return result;
}

Result<DeltaResult> Session::ApplyDelta(const Delta& delta) {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition(
        "Session::ApplyDelta: empty session (obtain one from "
        "CleanEngine::NewTrackedSession)");
  }
  if (!track_deltas_ || tracked_ == nullptr) {
    return Status::FailedPrecondition(
        "Session::ApplyDelta requires a delta-tracking session with a "
        "completed Run (CleanEngine::NewTrackedSession, then Run, then "
        "ApplyDelta)");
  }

  DeltaResult result;
  result.generation = generation_;
  // No edits: the covering repairs stand (the engine's master never
  // changes).
  if (delta.empty()) return result;

  // All-or-nothing: the edits go to a copy of the pristine relation, and
  // the pipeline cleans that copy from the pristine values, exactly as a
  // batch run over the edited relation. Nothing is committed until it
  // succeeds.
  data::Relation rerun = pristine_->Clone();
  // The copy becomes the tracked relation: sized exactly, with no slack
  // from growing by the inserts.
  rerun.Reserve(rerun.size() + static_cast<int>(delta.inserts.size()));
  UC_ASSIGN_OR_RETURN(result.inserted_ids, ApplyEdits(delta, &rerun));
  FixJournal journal;
  Result<std::vector<PhaseStats>> phases = ExecutePipeline(&rerun, &journal);
  if (!phases.ok()) {
    return internal::Annotate(
        phases.status(),
        "ApplyDelta generation " + std::to_string(generation_ + 1) + ": ");
  }

  // The copy had the pristine relation's ids and tombstones, so the
  // validated edits replay on it the same way.
  Result<std::vector<data::TupleId>> replayed =
      ApplyEdits(delta, pristine_.get());
  UC_CHECK(replayed.ok() && *replayed == result.inserted_ids);
  *tracked_ = std::move(rerun);
  journal_ = std::move(journal);
  result.generation = ++generation_;
  result.affected = tracked_->live_size();
  result.refinement_rounds = 1;
  result.phases = std::move(phases).value();
  return result;
}

}  // namespace uniclean
