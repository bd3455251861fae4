#include "uniclean/session.h"

#include <algorithm>

#include "common/check.h"
#include "uniclean/detail.h"
#include "uniclean/engine.h"

namespace uniclean {

using GroupId = core::VcfdPeerIndex::GroupId;
using Side = core::VcfdPeerIndex::Side;

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
    // Snapshot the pre-cleaning state first: ApplyDelta restarts affected
    // tuples from these values, exactly as a batch run over the edited
    // relation would. A repeated Run restarts tracking from scratch, and
    // until it succeeds the session is in the not-yet-run state (a failed
    // Run leaves it usable for a fresh one).
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
    BuildGroupIndex();
    known_master_size_ = engine_->environment().indexed_master_size();
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
  // The re-run repairs every tuple from the same pristine values the
  // committed repairs started from, so it moves the group keys of only a
  // few tuples; refile those.
  for (data::TupleId t = 0; t < rerun.size(); ++t) {
    const data::Tuple& after = rerun.tuple(t);
    if (rerun.live(t) && !groups_.SameKeys(after, tracked_->tuple(t))) {
      groups_.File(t, after, pristine_->tuple(t));
    }
  }
  *tracked_ = std::move(rerun);
  AdoptFullRun(journal);
  result->delta_journal = journal_;
  result->affected = tracked_->live_size();
  result->full_rerun = true;
  return Status::OK();
}

void Session::BuildGroupIndex() {
  groups_ = core::VcfdPeerIndex(engine_->rules());
  for (data::TupleId t = 0; t < tracked_->size(); ++t) {
    if (tracked_->live(t)) FileTuple(t);
  }
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
  if (delta.empty() && !master_grew) {
    // True no-op: no edits, no master growth — the covering repairs stand.
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

  // Seed the dirty set. The closure holds tuples that will be re-cleaned
  // from their pristine values; everything is deliberately NOT the
  // transitive component of "shares a group key" — on realistic data that
  // component is the whole relation. Cross-group propagation is handled by
  // the refinement rounds below, which widen the set only where a re-clean
  // actually perturbs an outcome.
  //
  // Edit kinds seed asymmetrically. A tuple that LEAVES a group (delete, or
  // the old-key side of an update) seeds its ex-peers eagerly: their
  // committed repairs may lean on the departed tuple (e.g. it was the
  // asserted donor), and because their repaired cells sit at confidence η a
  // re-run over them is a no-op — no drift signal would ever fire. A tuple
  // that JOINS a group (insert, or the new-key side of an update) seeds a
  // bucket's members only when one of them disagrees with the newcomer on
  // the rule's RHS: an agreeing vote cannot flip the group's committed
  // resolution, so those peers ride along in the boundary ring at their
  // committed values, while a disagreeing group must be re-voted from
  // pristine values (group resolutions weigh the members' pre-repair
  // states, which the committed ring no longer shows).
  // `in_closure` / `edited` grow with inserts below.
  const rules::RuleSet& rules = engine_->rules();
  std::vector<uint8_t> in_closure(static_cast<size_t>(tracked_->size()), 0);
  std::vector<uint8_t> edited(static_cast<size_t>(tracked_->size()), 0);
  auto seed = [&](data::TupleId t) {
    if (!tracked_->live(t) || in_closure[static_cast<size_t>(t)]) {
      return false;
    }
    in_closure[static_cast<size_t>(t)] = 1;
    return true;
  };
  // Every tuple sharing a group with `t` repaired against it; seed them.
  auto seed_neighbors = [&](data::TupleId t) {
    groups_.ForEachGroupOf(t, [&](size_t i, GroupId g) {
      for (data::TupleId u : groups_.members(i, g)) {
        if (u != t) seed(u);
      }
    });
  };
  // Members of t's groups whose committed RHS disagrees with t's raw value
  // — the groups t's arrival can actually re-vote.
  auto seed_disagreeing_neighbors = [&](data::TupleId t) {
    const data::Tuple& raw = tracked_->tuple(t);
    groups_.ForEachGroupOf(t, [&](size_t i, GroupId g) {
      const rules::Cfd& cfd = rules.cfd(groups_.rule(i));
      if (!cfd.MatchesLhs(raw)) return;
      const data::AttributeId b = cfd.rhs()[0];
      bool disagrees = false;
      for (data::TupleId u : groups_.members(i, g)) {
        if (u != t && tracked_->live(u) &&
            tracked_->tuple(u).value(b) != raw.value(b)) {
          disagrees = true;
          break;
        }
      }
      if (!disagrees) return;
      for (data::TupleId u : groups_.members(i, g)) {
        if (u != t) seed(u);
      }
    });
  };

  // Updates: re-point the tuple's pristine state at the new content. Old
  // group members lose a peer — seed them; new group members gain one.
  for (const auto& [t, tup] : delta.updates) {
    seed_neighbors(t);  // old-key peers
    tracked_->mutable_tuple(t) = tup;
    pristine_->mutable_tuple(t) = tup;
    FileTuple(t);
    seed(t);
    seed_disagreeing_neighbors(t);  // new-key peers
    edited[static_cast<size_t>(t)] = 1;
  }
  // Deletes: tombstone in both relations; former peers repaired against the
  // deleted tuple and must be re-derived without it. An update earlier in
  // this delta may have seeded the tuple itself; a dead tuple re-cleans
  // nothing.
  for (data::TupleId t : delta.deletes) {
    seed_neighbors(t);
    groups_.Unfile(t);
    tracked_->EraseTuple(t);
    pristine_->EraseTuple(t);
    in_closure[static_cast<size_t>(t)] = 0;
    edited[static_cast<size_t>(t)] = 0;
  }
  if (!delta.deletes.empty()) {
    journal_.RemoveIf(
        [&](const FixEntry& entry) { return !tracked_->live(entry.tuple); });
  }
  // Inserts: append to both relations (fresh ids), join the group indexes.
  for (const data::Tuple& tup : delta.inserts) {
    const data::TupleId t = tracked_->AddTuple(tup);
    const data::TupleId shadow = pristine_->AddTuple(tup);
    UC_CHECK_EQ(t, shadow);
    in_closure.push_back(0);
    edited.push_back(1);
    FileTuple(t);
    seed(t);
    seed_disagreeing_neighbors(t);
    result.inserted_ids.push_back(t);
  }

  // Master growth (CleanEngine::RefreshMasterIndexes since the last call):
  // MDs are per-tuple against the master, so a new master tuple affects
  // exactly the data tuples it matches. Probe every live tuple — current and
  // pristine projections, since different phases probe different states —
  // and seed those with a match beyond the old extent.
  if (master_grew) {
    const rules::RuleSet& rules = engine_->rules();
    for (data::TupleId t = 0; t < tracked_->size(); ++t) {
      if (!tracked_->live(t) || in_closure[static_cast<size_t>(t)]) continue;
      bool hit = false;
      for (rules::RuleId rule = 0; rule < rules.num_rules() && !hit; ++rule) {
        const core::MdMatcher* matcher = env.matcher(rule);
        if (matcher == nullptr) continue;
        for (data::TupleId s : matcher->Matches(tracked_->tuple(t))) {
          if (s >= known_master_size_) {
            hit = true;
            break;
          }
        }
        if (hit) break;
        for (data::TupleId s : matcher->Matches(pristine_->tuple(t))) {
          if (s >= known_master_size_) {
            hit = true;
            break;
          }
        }
      }
      if (hit) seed(t);
    }
    known_master_size_ = env.indexed_master_size();
  }

  std::vector<data::TupleId> closure;
  for (data::TupleId t = 0; t < tracked_->size(); ++t) {
    if (in_closure[static_cast<size_t>(t)]) closure.push_back(t);
  }
  if (closure.empty()) {
    // Pure deletions with no surviving peers: nothing to re-clean.
    return result;
  }

  // Scoped re-repair, to a fixpoint: clean the closure from its pristine
  // values inside a ring of committed peers and widen it only on evidence
  // that the edit reaches further. Two probes supply that evidence after
  // each round — a ring tuple whose re-run moved a value off its committed
  // state, and a closure outcome that leaves a violation straddling the
  // closure boundary. Clean tuples reproduce themselves, so expansion
  // chains stop at them instead of flooding the whole key-sharing
  // component. Terminates: the closure only grows, bounded by |D|.
  //
  // Crossover (see session.h): every round's scratch contains the previous
  // round's, so once 2S reaches the live count, or the rounds so far plus
  // this one do, finishing incrementally costs at least a full re-run;
  // re-clean the whole relation once instead.
  const int live = tracked_->live_size();
  int recleaned = 0;  // scratch tuples of the rounds run so far
  while (true) {
    ++result.refinement_rounds;
    // The scratch relation: closure tuples restarted from their pristine
    // values, then every out-of-closure group peer of a closure tuple — the
    // "boundary ring" — at its committed (already-repaired) state. The ring
    // completes every violation group a closure tuple belongs to, so group
    // resolutions see the same peer set a batch run would, with peers at the
    // values the committed journal stands behind. Ring outcomes are
    // discarded, not committed: a ring tuple whose scratch outcome drifts
    // from its committed values is the signal that the fixpoint assumption
    // ("peers outside the closure keep their repairs") failed for it, and
    // the expansion check below pulls it into the closure. Ring members
    // enter at final committed values rather than the mid-pipeline values a
    // batch run would show — a theoretical gap shared with intermediate-key
    // coincidences, validated empirically by delta_test's convergence pins.
    // Closure and ring are interleaved in tracked-id order: group
    // resolutions tie-break on tuple order, so the scratch relation must
    // present members in the same relative order the batch run saw.
    std::vector<uint8_t> in_ring(in_closure.size(), 0);
    for (data::TupleId t : closure) {
      groups_.ForEachGroupOf(t, [&](size_t i, GroupId g) {
        for (data::TupleId u : groups_.members(i, g)) {
          if (tracked_->live(u) && !in_closure[static_cast<size_t>(u)]) {
            in_ring[static_cast<size_t>(u)] = 1;
          }
        }
      });
    }
    const int scratch_size =
        static_cast<int>(closure.size()) +
        static_cast<int>(std::count(in_ring.begin(), in_ring.end(), 1));
    if (2 * scratch_size >= live || recleaned + scratch_size >= live) {
      // Fails like a round: the raw edits stay applied, nothing else moves.
      Status rerun = FullRerun(&result);
      if (!rerun.ok()) {
        return internal::Annotate(
            rerun, "ApplyDelta generation " + std::to_string(generation_) +
                       " (full re-run): ");
      }
      return result;
    }
    recleaned += scratch_size;
    data::Relation scratch(tracked_->schema_ptr());
    std::vector<data::TupleId> scratch_src;  // scratch id -> tracked id
    std::vector<uint8_t> scratch_in_closure;
    for (data::TupleId t = 0; t < tracked_->size(); ++t) {
      if (in_closure[static_cast<size_t>(t)]) {
        scratch.AddTuple(pristine_->tuple(t));
        scratch_src.push_back(t);
        scratch_in_closure.push_back(1);
      } else if (in_ring[static_cast<size_t>(t)]) {
        // Freeze the ring copy: cf 1.0 plus a deterministic mark on every
        // cell. cRepair and eRepair skip asserted cells entirely (cRepair
        // gains each as an assertion-grade donor), and the mark makes
        // hRepair treat the cell's equivalence class as settled — frozen
        // classes resolve via the no-union constant path, so a closure
        // cell's class is never contaminated by a union with a cf-1.0 ring
        // cell (which would distort its retarget costs and flip group
        // resolutions away from what a batch run derives). Without the
        // freeze, the pipeline's non-idempotence on its own output — e.g.
        // eRepair re-filling a cell hRepair nulled as unresolvable — reads
        // as spurious "drift" and floods the closure with tuples the edit
        // never reached.
        const data::TupleId sid = scratch.AddTuple(tracked_->tuple(t));
        data::Tuple& pinned = scratch.mutable_tuple(sid);
        for (data::AttributeId a = 0; a < arity; ++a) {
          pinned.set_confidence(a, 1.0);
          pinned.set_mark(a, data::FixMark::kDeterministic);
        }
        scratch_src.push_back(t);
        scratch_in_closure.push_back(0);
      }
    }
    FixJournal scratch_journal;
    Result<std::vector<PhaseStats>> executed =
        ExecutePipeline(&scratch, &scratch_journal);
    if (!executed.ok()) {
      // The raw edits are applied but the re-repair did not land; the
      // journal still covers the pre-delta repairs of the closure tuples.
      return internal::Annotate(
          executed.status(),
          "ApplyDelta generation " + std::to_string(generation_) + ": ");
    }
    result.phases = std::move(executed).value();

    bool expanded = false;
    for (size_t j = 0; j < scratch_src.size(); ++j) {
      const data::TupleId t = scratch_src[j];
      const data::Tuple& after = scratch.tuple(static_cast<data::TupleId>(j));
      const data::Tuple& committed = tracked_->tuple(t);
      if (scratch_in_closure[j]) {
        // Expansion probe: a closure tuple whose re-clean changed a VALUE
        // against what its peers repaired against can re-vote every group
        // that reads the changed attribute — group resolutions weigh the
        // members' states, so the peers of the touched rules' buckets must
        // themselves be re-derived from pristine values. A vCFD group reads
        // only its own attributes — the LHS for grouping, the RHS for
        // resolution — so expand precisely the rules whose attributes the
        // change touches (under both the committed-filed keys and the key
        // of the new values), not every group the tuple belongs to.
        // Confidence/mark drift alone neither expands nor commits (see
        // below): re-derivation in a partial context is not perfectly
        // provenance-faithful, and chasing that drift floods the closure.
        //
        // EDITED tuples are exempt from the committed-value comparison: for
        // a fresh insert the "committed" state is just the raw edit, no
        // peer ever repaired against it, and its re-clean is SUPPOSED to
        // move values — reading those fixes as divergence recruits the
        // whole key-sharing component for nothing. The one genuine hazard
        // is its repaired LHS landing the tuple in a group that was never
        // in the scratch; the outcome-key probe below covers exactly that.
        auto value_changed = [&](data::AttributeId a) {
          return after.value(a) != committed.value(a);
        };
        // Seed only the group members whose committed RHS disagrees with
        // the re-cleaned outcome: agreeing peers are already at the value
        // the group would resolve to, so pulling them in can change
        // nothing. This is the same gate the insert seeding applies, and it
        // is what stops expansion chains at clean tuples instead of
        // flooding the key-sharing component.
        auto seed_bucket = [&](size_t i, GroupId g, data::AttributeId b) {
          if (g < 0) return;
          bool disagrees = false;
          for (data::TupleId u : groups_.members(i, g)) {
            if (u != t && tracked_->live(u) &&
                tracked_->tuple(u).value(b) != after.value(b)) {
              disagrees = true;
              break;
            }
          }
          if (!disagrees) return;
          for (data::TupleId u : groups_.members(i, g)) {
            if (u != t && seed(u)) expanded = true;
          }
        };
        const bool was_edited = edited[static_cast<size_t>(t)] != 0;
        for (size_t i = 0; i < groups_.num_vcfds(); ++i) {
          const rules::Cfd& cfd = rules.cfd(groups_.rule(i));
          if (!was_edited) {
            bool touched = value_changed(cfd.rhs()[0]);
            for (data::AttributeId a : cfd.lhs()) {
              if (touched) break;
              touched = value_changed(a);
            }
            if (!touched) continue;
            for (Side side : {Side::kCurrent, Side::kPristine}) {
              seed_bucket(i, groups_.group_of(i, t, side), cfd.rhs()[0]);
            }
          }
          if (!cfd.MatchesLhs(after)) continue;
          // For an edited tuple this probes every rule with the OUTCOME
          // values: a peer that agreed with the raw edit (and so rode
          // pinned in the ring) can disagree with the repaired outcome —
          // the disagreement gate in seed_bucket catches exactly the
          // buckets where that happened and no others.
          const data::GroupKey key = data::GroupKey::Project(after, cfd.lhs());
          seed_bucket(i, groups_.Find(i, key), cfd.rhs()[0]);
        }
      } else {
        // Drift probe: a ring tuple whose re-run moved a VALUE off its
        // committed state is a fixpoint violation — the edit genuinely
        // reaches it, so re-clean it from pristine (next round completes
        // its own groups with a fresh ring). Confidence/mark drift alone is
        // expected — re-running phases over already-repaired values is not
        // perfectly idempotent (e.g. a repaired value can now MD-match
        // master data and be asserted) — and is discarded with the ring
        // outcome.
        for (data::AttributeId at = 0; at < arity; ++at) {
          if (after.value(at) != committed.value(at)) {
            if (seed(t)) expanded = true;
            break;
          }
        }
      }
    }
    if (expanded) {
      closure.clear();
      for (data::TupleId t = 0; t < tracked_->size(); ++t) {
        if (in_closure[static_cast<size_t>(t)]) closure.push_back(t);
      }
      continue;
    }

    // Converged: commit back into the tracked relation, refile under the
    // new current keys, and journal the fixes under this generation
    // (remapping scratch ids to tracked ids). Only edited tuples and
    // closure tuples whose re-clean changed a VALUE commit; a closure tuple
    // that re-cleans to its committed values (possibly with confidence or
    // mark drift — re-derivation in a partial context is not perfectly
    // provenance-faithful) keeps its committed state AND its existing
    // journal entries, which a full batch run already stands behind. Ring
    // entries are dropped wholesale — the ring is context. A committed
    // tuple's new entries replace its earlier ones, so the journal holds
    // only covering entries.
    std::vector<uint8_t> commits(scratch_src.size(), 0);
    std::vector<uint8_t> superseded(static_cast<size_t>(tracked_->size()), 0);
    for (size_t j = 0; j < scratch_src.size(); ++j) {
      if (!scratch_in_closure[j]) continue;
      const data::TupleId t = scratch_src[j];
      const data::Tuple& after = scratch.tuple(static_cast<data::TupleId>(j));
      bool changed = edited[static_cast<size_t>(t)] != 0;
      for (data::AttributeId at = 0; at < arity && !changed; ++at) {
        changed = after.value(at) != tracked_->tuple(t).value(at);
      }
      if (!changed) continue;
      commits[j] = 1;
      superseded[static_cast<size_t>(t)] = 1;
      tracked_->mutable_tuple(t) = after;
      FileTuple(t);
    }
    journal_.RemoveIf([&](const FixEntry& entry) {
      return superseded[static_cast<size_t>(entry.tuple)] != 0;
    });
    for (FixEntry entry : scratch_journal.entries()) {
      if (entry.tuple < 0 ||
          entry.tuple >= static_cast<data::TupleId>(scratch_src.size()) ||
          !commits[static_cast<size_t>(entry.tuple)]) {
        continue;
      }
      entry.tuple = scratch_src[static_cast<size_t>(entry.tuple)];
      entry.generation = generation_;
      journal_.Append(entry);
      result.delta_journal.Append(std::move(entry));
    }
    break;
  }
  result.affected = static_cast<int>(closure.size());
  return result;
}

std::vector<std::string> Session::PhaseNames() const {
  std::vector<std::string> names;
  names.reserve(phases_.size());
  for (const auto& phase : phases_) names.emplace_back(phase->name());
  return names;
}

}  // namespace uniclean
