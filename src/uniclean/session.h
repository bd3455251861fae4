// Session: the cheap, per-run handle of the engine/session split. A
// CleanEngine (engine.h) owns everything immutable and expensive — rules,
// master data, the selected phases, the warm core::MatchEnvironment and its
// memos — while a Session carries only the per-run mutable state: the
// progress callback, the cancel token, and (per Run call) the data relation
// being cleaned and the journal being written. Sessions are move-only, cost
// no allocation to create, and hold their engine alive through a
// shared_ptr, so the serving loop is:
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
// additionally keeps, after a successful Run(), the relation's pristine
// (pre-cleaning) state. ApplyDelta(Delta) then applies a batch of
// inserts/updates/deletes to a copy of that pristine state and re-cleans the
// copy once against the engine's warm match environment. Its result is
// therefore the batch run over the edited relation by construction,
// provenance included. Each applied delta counts as one more generation,
// and every Run or ApplyDelta commits whole or changes nothing:
//
//   uniclean::Session session = engine->NewTrackedSession();
//   auto initial = session.Run(&d);              // generation 0
//   uniclean::Delta delta;
//   delta.inserts.push_back(std::move(row));
//   auto dr = session.ApplyDelta(delta);         // generation 1
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
/// the re-clean starts the edited tuples from these values, exactly as a
/// batch run over the edited relation would.
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
  /// The session's generation after this delta: 1 for the first delta
  /// after Run, then one more per delta; unchanged by a no-op delta. A
  /// failed delta returns no DeltaResult and advances nothing.
  int generation = 0;
  /// Ids minted for Delta::inserts, index-matched to the input.
  std::vector<data::TupleId> inserted_ids;
  /// Tuples re-cleaned: every live tuple (0 for a no-op delta).
  int affected = 0;
  /// Re-cleaning runs: 1 (0 for a no-op delta).
  int refinement_rounds = 0;
  /// Per-phase statistics of the re-run; its fixes are the session's
  /// journal().
  std::vector<PhaseStats> phases;

  /// Sum of the re-run's phase fix counts.
  int total_fixes() const;
};

/// A per-run cleaning handle obtained from CleanEngine::NewSession().
/// Move-only. Holds its engine alive and runs the engine's phases.
class Session {
 public:
  /// An empty session; Run() fails with FailedPrecondition until a real
  /// session is move-assigned in. Exists so sessions can be class members.
  Session() = default;

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  /// Cleans `data` against the engine's master, rules and warm
  /// match environment. The relation's schema must match the rule set's
  /// data schema; its cell values must be interned in the same StringPool
  /// as the engine's master (always true outside ScopedStringPool test
  /// scopes), or the shared memos would confuse ids across pools. May be
  /// called repeatedly, over the same or different relations; every call
  /// reuses the engine's warm indexes and memos.
  ///
  /// The run is all-or-nothing: the phases clean a copy of `data`, which
  /// replaces it only on success. A failed, cancelled or expired run
  /// returns its error and leaves `data` as it was.
  ///
  /// On a tracked session (CleanEngine::NewTrackedSession) a successful Run
  /// additionally keeps the relation's pristine (pre-cleaning) state and the
  /// journal, and (re)starts tracking at generation 0 on its relation; the
  /// relation must then outlive the session's delta use. A failed Run keeps
  /// the tracking of the session's last successful Run, if any.
  Result<CleanResult> Run(data::Relation* data);

  /// Folds `delta` into the tracked relation: applies the edits to a copy
  /// of its pristine state and re-cleans that copy with the full phase
  /// pipeline against the warm match environment. Only if the pipeline
  /// succeeds does the session replay the edits on its pristine state, move
  /// the copy into the tracked relation, replace the journal with the
  /// re-run's fixes and advance the generation. So the tracked relation and
  /// CanonicalJournal() equal a batch run's over the edited relation,
  /// provenance included (pinned by tests/delta_sweep_test.cc after every
  /// DELTA of seeded edit streams).
  ///
  /// Fails with FailedPrecondition before a tracked Run(), with
  /// InvalidArgument on bad edits (unknown or dead tuple ids, a tuple
  /// deleted twice, arity mismatches), and with the pipeline's status when
  /// the re-run fails (cancelled, expired). A failed delta changes nothing,
  /// so the caller may send it again. An empty delta is a no-op: the
  /// engine's master never changes.
  Result<DeltaResult> ApplyDelta(const Delta& delta);

  /// The fix set of a tracked session, canonicalized (sorted by (tuple,
  /// attr) — see FixJournal::Canonicalized). After a
  /// successful Run or ApplyDelta it is byte-equal, provenance included, to
  /// a batch run's over the tracked relation. Empty before a tracked Run().
  FixJournal CanonicalJournal() const { return journal_.Canonicalized(); }

  /// The fixes of a tracked session's last successful Run or ApplyDelta,
  /// in append order.
  const FixJournal& journal() const { return journal_; }

  /// Deltas applied since the last successful tracked Run() (0 right after
  /// it).
  int generation() const { return generation_; }

  /// Observer invoked before and after every phase of Run() and of
  /// ApplyDelta's re-run. The event's data pointer is the run's working
  /// copy, never the caller's or the tracked relation.
  void set_progress_callback(ProgressCallback callback) {
    progress_ = std::move(callback);
  }

  /// Arms cooperative cancellation for subsequent Run/ApplyDelta calls
  /// (null disarms). The token is polled at phase boundaries and, inside
  /// the repair engines, between committed fixes. Semantics when it trips:
  ///
  ///  * Run() returns kCancelled/kDeadlineExceeded and, like every failed
  ///    Run, applies ZERO fixes and returns no journal — never a partially
  ///    repaired relation. A tracked session keeps the tracking of its last
  ///    successful Run.
  ///  * ApplyDelta returns the same status and, like every failed delta,
  ///    applies no edit: the tracked relation, its pristine state, the
  ///    journal and the generation stay as they were, and the delta may be
  ///    sent again.
  void set_cancel_token(std::shared_ptr<const common::CancelToken> token) {
    cancel_ = std::move(token);
  }

  /// The engine this session runs against; null for an empty session.
  const CleanEngine* engine() const { return engine_.get(); }

 private:
  friend class CleanEngine;

  explicit Session(std::shared_ptr<const CleanEngine> engine)
      : engine_(std::move(engine)) {}

  /// The shared pipeline executor behind Run and ApplyDelta's re-run.
  Result<std::vector<PhaseStats>> ExecutePipeline(data::Relation* data,
                                                  FixJournal* journal);

  std::shared_ptr<const CleanEngine> engine_;
  ProgressCallback progress_;
  std::shared_ptr<const common::CancelToken> cancel_;

  // --- delta-tracking state (unused unless track_deltas_) ------------------
  bool track_deltas_ = false;
  data::Relation* tracked_ = nullptr;         // borrowed; bound by Run
  std::unique_ptr<data::Relation> pristine_;  // pre-cleaning snapshot
  FixJournal journal_;                        // the last run's fixes
  int generation_ = 0;
};

}  // namespace uniclean

#endif  // UNICLEAN_UNICLEAN_SESSION_H_
