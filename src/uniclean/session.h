// Session: the cheap, per-run handle of the engine/session split. A
// CleanEngine (engine.h) owns everything immutable and expensive — rules,
// master data, the warm core::MatchEnvironment and its memos — while a
// Session carries only the per-run mutable state: the phase instances, the
// progress callback, and (per Run call) the data relation being cleaned and
// the journal being written. Sessions are move-only, cost a few phase
// allocations to create, and hold their engine alive through a shared_ptr,
// so the serving loop is:
//
//   uniclean::Session session = engine->NewSession();
//   auto result = session.Run(&batch);   // warm indexes, shared memos
//
// Any number of sessions may Run() concurrently over *independent* data
// relations; results are byte-identical to running the same relations
// serially (the engine's shared memos cache pure functions of the static
// master data). One Session must not be used from two threads at once, and
// two concurrent Runs must not clean the same relation.
//
// Incremental cleaning: a *tracked* session (CleanEngine::NewTrackedSession)
// additionally maintains, across its one Run(), the violation-group indexes
// the repair engines grouped tuples by. ApplyDelta(Delta) then folds a batch
// of inserts/updates/deletes in without re-cleaning the world: it seeds the
// set of tuples whose repairs could change (the edited tuples, every tuple
// sharing a variable-CFD LHS group with one, and tuples newly matching
// appended master data), re-runs the phase pipeline over just that set —
// from pristine (pre-cleaning) values, with the set's out-of-closure group
// peers present as read-only context at their committed values, against the
// engine's warm match environment — and iterates to a fixpoint: whenever a
// re-cleaned tuple's outcome differs from its committed state, its
// violation groups are pulled in and the round repeats, so cross-group
// effects propagate exactly as far as they reach and no further. When the
// next round would cost about as much as re-cleaning everything, it instead
// re-cleans the whole relation once from pristine values; the group index
// survives that re-run, which refiles only the tuples whose LHS keys it
// moved (a handful of a thousand). Either way the resulting fixes are
// journaled under a fresh delta generation:
//
//   uniclean::Session session = engine->NewTrackedSession();
//   auto initial = session.Run(&d);              // generation 0
//   uniclean::Delta delta;
//   delta.inserts.push_back(std::move(row));
//   auto dr = session.ApplyDelta(delta);         // generation 1: dirty set
//   session.CanonicalJournal();                  // == batch run over final d

#ifndef UNICLEAN_UNICLEAN_SESSION_H_
#define UNICLEAN_UNICLEAN_SESSION_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "core/vcfd_peer_index.h"
#include "data/relation.h"
#include "rules/ruleset.h"
#include "uniclean/fix_journal.h"
#include "uniclean/phase.h"

namespace uniclean {

class CleanEngine;

/// The outcome of one Session::Run(): per-phase statistics plus the full
/// fix provenance journal.
struct CleanResult {
  FixJournal journal;
  /// One entry per executed phase, in pipeline order.
  std::vector<PhaseStats> phases;

  /// Sum of all phases' fix counts.
  int total_fixes() const;

  /// Stats of the named phase, or null if it did not run.
  const PhaseStats* phase(std::string_view name) const;

  /// All record matches identified across the phases, deduplicated and
  /// sorted — the paper's "matches found by Uni" (Exp-2).
  std::vector<std::pair<data::TupleId, data::TupleId>> AllMatches() const;
};

/// One batch of edits to a tracked relation, applied by
/// Session::ApplyDelta in the order updates, deletes, inserts. Tuple
/// content (values + confidences) is taken as the new *pristine* state:
/// marks reset and the incremental re-clean starts the affected tuples from
/// these values, exactly as a batch run over the edited relation would.
struct Delta {
  /// New tuples, appended with fresh ids (reported in
  /// DeltaResult::inserted_ids). Arity must match the data schema.
  std::vector<data::Tuple> inserts;
  /// (existing tuple id, replacement content) pairs. The id must be live.
  std::vector<std::pair<data::TupleId, data::Tuple>> updates;
  /// Tuple ids to tombstone (data::Relation::EraseTuple — ids never shift).
  /// A tuple both updated and deleted ends deleted: it is not re-cleaned,
  /// counted in DeltaResult::affected or journaled.
  std::vector<data::TupleId> deletes;

  bool empty() const {
    return inserts.empty() && updates.empty() && deletes.empty();
  }
};

/// The outcome of one Session::ApplyDelta.
struct DeltaResult {
  /// Generation this delta was journaled under (1 for the first delta after
  /// Run, then monotonically increasing; unchanged by a no-op delta).
  int generation = 0;
  /// Ids minted for Delta::inserts, index-matched to the input.
  std::vector<data::TupleId> inserted_ids;
  /// Tuples re-cleaned: the edit's violation-group neighborhood, widened to
  /// the repair fixpoint — the incremental cost driver. After a full
  /// re-run, every live tuple.
  int affected = 0;
  /// Re-repair rounds run: 1 plus one per closure expansion (a re-cleaned
  /// tuple's outcome changed, so its groups were pulled in). A full re-run
  /// counts as one round.
  int refinement_rounds = 0;
  /// True when the delta re-cleaned the whole relation once instead of
  /// running the next scoped round (see Session::ApplyDelta).
  bool full_rerun = false;
  /// Fixes of this generation only, with tuple ids of the tracked relation.
  /// After a full re-run, the whole relation's fixes.
  FixJournal delta_journal;
  /// Per-phase statistics of the final round.
  std::vector<PhaseStats> phases;

  /// Sum of the final round's phase fix counts.
  int total_fixes() const;
};

/// A per-run cleaning handle obtained from CleanEngine::NewSession().
/// Move-only. Holds its engine alive; owns its phase instances (created
/// fresh per session, so stateful phases never race across sessions).
class Session {
 public:
  /// An empty session; Run() fails with FailedPrecondition until a real
  /// session is move-assigned in. Exists so sessions can be class members.
  Session() = default;

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  /// Cleans `data` in place against the engine's master, rules and warm
  /// match environment. The relation's schema must match the rule set's
  /// data schema; its cell values must be interned in the same StringPool
  /// as the engine's master (always true outside ScopedStringPool test
  /// scopes), or the shared memos would confuse ids across pools. May be
  /// called repeatedly, over the same or different relations; every call
  /// reuses the engine's warm indexes and memos.
  ///
  /// On a tracked session (EnableDeltaTracking /
  /// CleanEngine::NewTrackedSession) a Run additionally snapshots the
  /// relation's pristine state, accumulates the journal and builds the
  /// violation-group indexes ApplyDelta maintains; the relation must then
  /// outlive the session's delta use, and a repeated Run restarts tracking
  /// from scratch (generation 0) on its relation. A failed tracked Run
  /// leaves the session in the not-yet-run state.
  Result<CleanResult> Run(data::Relation* data);

  /// Arms delta tracking for the next Run (see ApplyDelta). Must be called
  /// before Run; prefer CleanEngine::NewTrackedSession, which returns a
  /// session with tracking already armed. Tracking costs one pristine clone
  /// of the relation plus the violation-group index (core::VcfdPeerIndex):
  /// per variable CFD, 24 bytes per tuple id and each group's key in a
  /// half-full table, about 0.57 MB for a 1,000-tuple HOSP relation under
  /// its 15 vCFDs. Run builds the index; ApplyDelta and its full re-runs
  /// refile only the tuples whose LHS keys moved.
  void EnableDeltaTracking() { track_deltas_ = true; }

  /// Incrementally folds `delta` into the tracked relation: applies the
  /// edits, seeds the affected tuples through the maintained variable-CFD
  /// group indexes (plus tuples newly matching master data appended since
  /// the last call — see CleanEngine::RefreshMasterIndexes), and re-runs the
  /// phase pipeline over only that set, restarted from pristine values
  /// against the warm match environment, widening to a fixpoint when
  /// outcomes change. Fixes are journaled under a fresh generation and
  /// replace the re-cleaned tuples' earlier entries. Fails with
  /// FailedPrecondition before a tracked Run() and with InvalidArgument on
  /// bad edits (unknown or dead tuple ids, a tuple deleted twice, arity
  /// mismatches), in which case nothing was applied. An empty delta with no
  /// master growth is a no-op.
  ///
  /// Crossover: a round re-cleans its scratch relation of S tuples (closure
  /// plus ring), and a round that expands is followed by one at least as
  /// large. So before each round, with N live tuples and W scratch tuples
  /// re-cleaned by the earlier rounds, ApplyDelta re-cleans the whole
  /// relation once from pristine values instead when 2S >= N (finishing
  /// incrementally would cost at least that much) or W + S >= N (the rounds
  /// so far already cost a full re-run). The result is then the batch run
  /// over the final relation by construction; DeltaResult::full_rerun says
  /// so. The decision reads only tuple counts, so it is deterministic.
  ///
  /// Convergence: the closure re-runs the same phases from the same pristine
  /// inputs a batch run over the final relation would see — with its
  /// violation-group peers completed by a frozen "ring" of out-of-closure
  /// tuples at their committed values (pinned so the pipeline treats them as
  /// settled context, not repair targets), in tracked-id order so group
  /// tie-breaks match the batch run. The invariant this buys is the
  /// canonical fix set — WHAT was repaired: the (tuple, attribute, old, new)
  /// rows of FixJournal::CanonicalFixSetCsv() match a batch run over the
  /// final relation (asserted in tests/delta_test.cc). Which phase/rule gets
  /// credited for a fix is derivation provenance and may differ between the
  /// incremental and batch trajectories. Tuples outside the closure keep
  /// their existing repairs untouched.
  Result<DeltaResult> ApplyDelta(const Delta& delta);

  /// The covering fix set of a tracked session: for every live tuple, the
  /// journal entries of the generation that last cleaned it, canonicalized
  /// (sorted by (tuple, attr), generations zeroed — see
  /// FixJournal::Canonicalized). Its CanonicalFixSetCsv() rendering is
  /// byte-comparable to a batch run's over the final relation; the
  /// full-provenance rows additionally carry phase/rule attribution, which
  /// is trajectory-dependent. Empty before a tracked Run().
  FixJournal CanonicalJournal() const { return journal_.Canonicalized(); }

  /// The covering entries of a tracked session in append order: for every
  /// live tuple, the entries of the generation that last cleaned it. Its
  /// size is bounded by the relation's, not by the number of deltas.
  const FixJournal& journal() const { return journal_; }

  /// Delta generations applied since the tracked Run() (0 right after it).
  int generation() const { return generation_; }

  /// Observer invoked before and after every phase of Run() (and of each
  /// ApplyDelta refinement round, where the event's data pointer is the
  /// scoped scratch relation, not the tracked one).
  void set_progress_callback(ProgressCallback callback) {
    progress_ = std::move(callback);
  }

  /// Arms cooperative cancellation for subsequent Run/ApplyDelta calls
  /// (null disarms). The token is polled at phase boundaries and, inside
  /// the built-in phases, between committed fixes. Semantics when it trips:
  ///
  ///  * Run() becomes all-or-nothing: the pipeline executes over a scratch
  ///    copy that is swapped into the caller's relation only on success, so
  ///    a cancelled/expired run returns kCancelled/kDeadlineExceeded with
  ///    ZERO fixes applied and no journal — never a partially repaired
  ///    relation. (Without a token the historical clean-in-place path is
  ///    unchanged and costs no copy.) A tracked session whose Run was
  ///    cancelled resets to the not-yet-run state and stays usable for a
  ///    fresh Run().
  ///  * ApplyDelta keeps its existing failure contract: the raw edits are
  ///    applied, the scratch re-repair (or full re-run copy) is discarded,
  ///    the journal still covers the pre-delta repairs of the live tuples,
  ///    and the session remains usable.
  void set_cancel_token(std::shared_ptr<const common::CancelToken> token) {
    cancel_ = std::move(token);
  }

  /// Phase names in pipeline order.
  std::vector<std::string> PhaseNames() const;

  /// The engine this session runs against; null for an empty session.
  const CleanEngine* engine() const { return engine_.get(); }

 private:
  friend class CleanEngine;

  Session(std::shared_ptr<const CleanEngine> engine,
          std::vector<std::unique_ptr<Phase>> phases)
      : engine_(std::move(engine)), phases_(std::move(phases)) {}

  /// The shared pipeline executor behind Run and ApplyDelta's rounds.
  Result<std::vector<PhaseStats>> ExecutePipeline(data::Relation* data,
                                                  FixJournal* journal);

  /// Adopts `journal`, a pipeline run over the whole tracked relation, as
  /// the covering journal under the current generation. The shared tail of
  /// a tracked Run and of a full re-run.
  void AdoptFullRun(const FixJournal& journal);
  /// ApplyDelta's crossover: re-cleans a copy of the pristine relation and,
  /// on success, moves it into the tracked one, refiling only the tuples
  /// whose group keys the re-run moved. On failure nothing changes.
  Status FullRerun(DeltaResult* result);

  /// Files tuple `t` in every variable-CFD group, under both its current
  /// and its pristine LHS key (repair coupling can flow through either: the
  /// batch pipeline groups on pristine values early and on repaired values
  /// late). Relinks only the filings whose keys moved.
  void FileTuple(data::TupleId t) {
    groups_.File(t, tracked_->tuple(t), pristine_->tuple(t));
  }
  /// Rebuilds groups_ from the tracked relation.
  void BuildGroupIndex();

  std::shared_ptr<const CleanEngine> engine_;
  std::vector<std::unique_ptr<Phase>> phases_;
  ProgressCallback progress_;
  std::shared_ptr<const common::CancelToken> cancel_;

  // --- delta-tracking state (unused unless track_deltas_) ------------------
  bool track_deltas_ = false;
  data::Relation* tracked_ = nullptr;         // borrowed; bound by Run
  std::unique_ptr<data::Relation> pristine_;  // pre-cleaning snapshot
  FixJournal journal_;                        // covering entries only
  int generation_ = 0;
  int known_master_size_ = 0;  // master extent already accounted for
  core::VcfdPeerIndex groups_;  // every live tuple's violation groups
};

}  // namespace uniclean

#endif  // UNICLEAN_UNICLEAN_SESSION_H_
