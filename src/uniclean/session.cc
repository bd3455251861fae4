#include "uniclean/session.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/crepair.h"
#include "core/erepair.h"
#include "core/hrepair.h"
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
/// (cancelled, expired) returns its interrupt status.
Result<PhaseStats> RunPhase(Phase phase, data::Relation* data,
                            const CleanEngine& engine, FixJournal* journal,
                            const common::CancelToken* cancel) {
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
      const core::CRepairStats stats = core::CRepair(data, env, opts);
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
      const core::ERepairStats stats = core::ERepair(data, env, opts);
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
      const core::HRepairStats stats = core::HRepair(data, env, opts);
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
    Result<PhaseStats> stats = RunPhase(phase, data, *engine_, journal, cancel);
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

  if (track_deltas_) {
    // A repeated Run restarts tracking from scratch, and until it succeeds
    // the session is in the not-yet-run state (a failed Run leaves it
    // usable for a fresh one).
    tracked_ = nullptr;
    pristine_.reset();
    journal_ = FixJournal();
    generation_ = 0;
  }

  // All-or-nothing: the phases clean a copy that replaces the caller's
  // relation only on success, so a failed, cancelled or expired run applies
  // no fix — never a partially repaired relation.
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
    rerun_pending_ = false;
  }
  *data = std::move(scratch);
  return result;
}

Status Session::FullRerun(DeltaResult* result) {
  data::Relation rerun = pristine_->Clone();
  FixJournal journal;
  UC_ASSIGN_OR_RETURN(result->phases, ExecutePipeline(&rerun, &journal));
  *tracked_ = std::move(rerun);
  journal_ = std::move(journal);
  result->affected = tracked_->live_size();
  result->refinement_rounds = 1;
  return Status::OK();
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
  // Polled again by the pipeline; this entry check makes an already-expired
  // deadline fail before any edit is applied.
  UC_RETURN_IF_ERROR(common::PollCancel(cancel_.get()));

  DeltaResult result;
  if (delta.empty() && !rerun_pending_) {
    // True no-op: no edits, and no edits of a failed DELTA left uncleaned —
    // the covering repairs stand (the engine's master never changes).
    result.generation = generation_;
    return result;
  }

  // Validate every edit before applying any, so a failed ApplyDelta leaves
  // the tracked state untouched.
  const int arity = tracked_->schema().arity();
  for (const data::Tuple& tup : delta.inserts) {
    if (tup.arity() != arity) {
      return Status::InvalidArgument(
          "ApplyDelta: insert arity " + std::to_string(tup.arity()) +
          " does not match the data schema arity " + std::to_string(arity));
    }
  }
  for (const auto& [t, tup] : delta.updates) {
    if (t < 0 || t >= tracked_->size()) {
      return Status::InvalidArgument("ApplyDelta: update of unknown tuple " +
                                     std::to_string(t));
    }
    if (!tracked_->live(t)) {
      return Status::InvalidArgument("ApplyDelta: update of deleted tuple " +
                                     std::to_string(t));
    }
    if (tup.arity() != arity) {
      return Status::InvalidArgument(
          "ApplyDelta: update arity " + std::to_string(tup.arity()) +
          " does not match the data schema arity " + std::to_string(arity));
    }
  }
  for (data::TupleId t : delta.deletes) {
    if (t < 0 || t >= tracked_->size()) {
      return Status::InvalidArgument("ApplyDelta: delete of unknown tuple " +
                                     std::to_string(t));
    }
    if (!tracked_->live(t)) {
      return Status::InvalidArgument(
          "ApplyDelta: delete of already-deleted tuple " + std::to_string(t));
    }
  }
  std::vector<data::TupleId> deletes = delta.deletes;
  std::sort(deletes.begin(), deletes.end());
  auto repeated = std::adjacent_find(deletes.begin(), deletes.end());
  if (repeated != deletes.end()) {
    return Status::InvalidArgument("ApplyDelta: tuple " +
                                   std::to_string(*repeated) +
                                   " is deleted twice");
  }

  ++generation_;
  result.generation = generation_;

  // Edits apply in the order updates, deletes, inserts, to the tracked
  // relation and its pristine shadow alike: the re-run below starts from
  // the pristine values, exactly as a batch run over the edited relation.
  for (const auto& [t, tup] : delta.updates) {
    tracked_->mutable_tuple(t) = tup;
    pristine_->mutable_tuple(t) = tup;
  }
  for (data::TupleId t : delta.deletes) {
    tracked_->EraseTuple(t);
    pristine_->EraseTuple(t);
  }
  if (!delta.deletes.empty()) {
    journal_.RemoveIf(
        [&](const FixEntry& entry) { return !tracked_->live(entry.tuple); });
  }
  for (const data::Tuple& tup : delta.inserts) {
    const data::TupleId t = tracked_->AddTuple(tup);
    const data::TupleId shadow = pristine_->AddTuple(tup);
    UC_CHECK_EQ(t, shadow);
    result.inserted_ids.push_back(t);
  }

  // On failure the raw edits stay applied and the journal still covers the
  // pre-delta repairs of the live tuples; the re-run stays pending, so the
  // next DELTA re-cleans even when it is empty.
  Status rerun = FullRerun(&result);
  if (!rerun.ok()) {
    rerun_pending_ = true;
    return internal::Annotate(
        rerun, "ApplyDelta generation " + std::to_string(generation_) + ": ");
  }
  rerun_pending_ = false;
  return result;
}

}  // namespace uniclean
