#include "uniclean/session.h"

#include <algorithm>

#include "common/check.h"
#include "uniclean/detail.h"
#include "uniclean/engine.h"

namespace uniclean {

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
  std::vector<PhaseStats> executed;
  PipelineContext ctx;
  ctx.data = data;
  ctx.master = &engine_->master();
  ctx.rules = &engine_->rules();
  ctx.config = engine_->config();
  ctx.journal = journal;
  ctx.match_env = &engine_->environment();
  ctx.cancel = cancel_.get();

  const int total = static_cast<int>(phases_.size());
  executed.reserve(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) {
    UC_RETURN_IF_ERROR(common::PollCancel(ctx.cancel));
    Phase& phase = *phases_[static_cast<size_t>(i)];
    if (progress_) {
      PhaseEvent event;
      event.kind = PhaseEvent::Kind::kPhaseStarted;
      event.index = i;
      event.total = total;
      event.phase = phase.name();
      event.data = data;
      progress_(event);
    }
    Result<PhaseStats> stats = phase.Run(&ctx);
    if (!stats.ok()) {
      return internal::Annotate(stats.status(),
                                "phase '" + std::string(phase.name()) + "': ");
    }
    PhaseStats phase_stats = std::move(stats).value();
    phase_stats.phase = std::string(phase.name());
    executed.push_back(std::move(phase_stats));
    if (progress_) {
      PhaseEvent event;
      event.kind = PhaseEvent::Kind::kPhaseFinished;
      event.index = i;
      event.total = total;
      event.phase = phase.name();
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

  std::unique_ptr<data::Relation> pristine;
  if (track_deltas_) {
    // Snapshot the pre-cleaning state first: ApplyDelta re-cleans from
    // these values, exactly as a batch run over the edited relation would.
    // A repeated Run restarts tracking from scratch, and until it succeeds
    // the session is in the not-yet-run state (a failed Run leaves it
    // usable for a fresh one).
    pristine = std::make_unique<data::Relation>(data->Clone());
    tracked_ = nullptr;
    pristine_.reset();
    journal_ = FixJournal();
    generation_ = 0;
  }

  CleanResult result;
  if (cancel_ != nullptr) {
    // All-or-nothing under cancellation: clean a scratch copy and swap it
    // into the caller's relation only on success, so a cancelled or expired
    // run applies ZERO fixes — never a partially repaired relation. The
    // tokenless path below stays the historical clean-in-place one (no copy).
    data::Relation scratch = data->Clone();
    UC_ASSIGN_OR_RETURN(result.phases,
                        ExecutePipeline(&scratch, &result.journal));
    *data = std::move(scratch);
  } else {
    UC_ASSIGN_OR_RETURN(result.phases,
                        ExecutePipeline(data, &result.journal));
  }

  if (track_deltas_) {
    tracked_ = data;
    pristine_ = std::move(pristine);
    AdoptFullRun(result.journal);
    known_master_size_ = engine_->environment().indexed_master_size();
    rerun_pending_ = false;
  }
  return result;
}

void Session::AdoptFullRun(const FixJournal& journal) {
  journal_ = FixJournal();
  for (FixEntry entry : journal.entries()) {
    entry.generation = generation_;
    journal_.Append(std::move(entry));
  }
}

Status Session::FullRerun(DeltaResult* result) {
  data::Relation rerun = pristine_->Clone();
  FixJournal journal;
  UC_ASSIGN_OR_RETURN(result->phases, ExecutePipeline(&rerun, &journal));
  *tracked_ = std::move(rerun);
  AdoptFullRun(journal);
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
  const core::MatchEnvironment& env = engine_->environment();
  const bool master_grew = env.indexed_master_size() > known_master_size_;

  DeltaResult result;
  if (delta.empty() && !master_grew && !rerun_pending_) {
    // True no-op: no edits, no master growth, no edits of a failed DELTA
    // left uncleaned — the covering repairs stand.
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
  // pre-delta repairs of the live tuples; master growth and the re-run stay
  // pending, so the next DELTA re-cleans even when it is empty.
  Status rerun = FullRerun(&result);
  if (!rerun.ok()) {
    rerun_pending_ = true;
    return internal::Annotate(
        rerun, "ApplyDelta generation " + std::to_string(generation_) + ": ");
  }
  rerun_pending_ = false;
  known_master_size_ = env.indexed_master_size();
  return result;
}

std::vector<std::string> Session::PhaseNames() const {
  std::vector<std::string> names;
  names.reserve(phases_.size());
  for (const auto& phase : phases_) names.emplace_back(phase->name());
  return names;
}

}  // namespace uniclean
