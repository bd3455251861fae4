#include "core/hrepair.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/cost_model.h"
#include "core/equivalence.h"
#include "core/vcfd_groups.h"

namespace uniclean {
namespace core {

namespace {

using data::AttributeId;
using data::FixMark;
using data::Relation;
using data::TupleId;
using data::Value;
using rules::Cfd;
using rules::Md;
using rules::RuleId;
using rules::RuleSet;

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

class HRepairRun {
 public:
  HRepairRun(Relation* d, const MatchEnvironment& env,
             const HRepairOptions& options, RunMatchTable& matches)
      : view_(*d),
        original_(d->Clone()),
        matches_(matches),
        dm_(env.master()),
        ruleset_(env.rules()),
        options_(options),
        eq_(d->size(), d->schema().arity()),
        groups_(*d, env.rules()),
        last_rule_(static_cast<size_t>(d->size()) *
                       static_cast<size_t>(d->schema().arity()),
                   -1),
        scan_anomalies_(static_cast<size_t>(env.rules().num_rules())) {
    // Corollary 7.1: deterministic fixes are preserved — freeze them.
    // Tombstoned tuples stay out of the class structure entirely: their
    // cells are never frozen, probed or retargeted.
    for (TupleId t = 0; t < view_.size(); ++t) {
      if (!view_.live(t)) continue;
      for (AttributeId a = 0; a < view_.schema().arity(); ++a) {
        if (view_.tuple(t).mark(a) == FixMark::kDeterministic) {
          eq_.Freeze(eq_.Cell(t, a), view_.tuple(t).value(a));
        }
      }
    }
  }

  HRepairStats Run() {
    bool changed = true;
    while (changed) {
      changed = false;
      ++stats_.passes;
      groups_.BeginPass();
      for (RuleId rule = 0; rule < ruleset_.num_rules(); ++rule) {
        // hRepair only observes fixes after the fixpoint below, so a
        // cancelled run rolls the view back to the phase entry state
        // (original_ is already a clone): zero committed fixes, no tear.
        if (options_.cancel != nullptr && options_.cancel->IsCancelled()) {
          stats_.interrupt = options_.cancel->status();
          view_ = original_;
          return stats_;
        }
        current_rule_ = rule;
        switch (ruleset_.kind(rule)) {
          case rules::RuleKind::kConstantCfd:
            changed |= ResolveConstantCfd(rule);
            break;
          case rules::RuleKind::kVariableCfd:
            changed |= ResolveVariableCfd(rule);
            break;
          case rules::RuleKind::kMd:
            changed |= ResolveMd(rule);
            break;
        }
      }
    }
    // Mark every cell whose value changed in this phase as a possible fix.
    for (TupleId t = 0; t < view_.size(); ++t) {
      if (!view_.live(t)) continue;
      for (AttributeId a = 0; a < view_.schema().arity(); ++a) {
        if (view_.tuple(t).value(a) != original_.tuple(t).value(a)) {
          if (options_.on_fix) {
            options_.on_fix(t, a, original_.tuple(t).value(a),
                            view_.tuple(t).value(a),
                            last_rule_[static_cast<size_t>(eq_.Cell(t, a))]);
          }
          view_.mutable_tuple(t).set_mark(a, FixMark::kPossible);
          ++stats_.possible_fixes;
        }
      }
    }
    return stats_;
  }

 private:
  /// Pushes the class target of `cell`'s class into the view and touches
  /// the affected tuples: MDs re-probe them, and their vCFD groups turn
  /// dirty (or are queued, in the rule being resolved).
  void SyncClass(CellId cell) {
    CellId root = eq_.Find(cell);
    TargetKind kind = eq_.target_kind(root);
    if (kind == TargetKind::kUnfixed) return;  // singletons keep their value
    Value v = kind == TargetKind::kNull ? Value::Null()
                                        : eq_.target_constant(root);
    for (CellId member : eq_.Members(root)) {
      data::TupleId t = eq_.TupleOf(member);
      view_.mutable_tuple(t).set_value(eq_.AttrOf(member), v);
      last_rule_[static_cast<size_t>(member)] = current_rule_;
      groups_.Touch(t);
    }
  }

  /// Cost of retargeting the class of `cell` to constant `v` (or to null
  /// when `v` is the null value), measured against the original data.
  double ClassRetargetCost(CellId cell, const Value& v) {
    double cost = 0.0;
    for (CellId member : eq_.Members(eq_.Find(cell))) {
      TupleId t = eq_.TupleOf(member);
      AttributeId a = eq_.AttrOf(member);
      cost += CellCost(original_.tuple(t).value(a),
                       original_.tuple(t).confidence(a), v);
    }
    return cost;
  }

  /// Cost of `SetConstant(cell, v)` accounting for the upgrade-to-null case;
  /// kInfeasible when the class is frozen to a different constant.
  double SetConstantCost(CellId cell, const Value& v) {
    CellId root = eq_.Find(cell);
    if (eq_.frozen(root)) {
      return eq_.target_constant(root) == v ? 0.0 : kInfeasible;
    }
    if (eq_.target_kind(root) == TargetKind::kConstant &&
        eq_.target_constant(root) != v) {
      return ClassRetargetCost(root, Value::Null());  // will upgrade to null
    }
    if (eq_.target_kind(root) == TargetKind::kNull) return 0.0;
    return ClassRetargetCost(root, v);
  }

  double SetNullCost(CellId cell) {
    CellId root = eq_.Find(cell);
    if (eq_.frozen(root)) return kInfeasible;
    return ClassRetargetCost(root, Value::Null());
  }

  /// Cheapest non-frozen LHS cell of tuple `t` among `attrs`; -1 if all are
  /// frozen. Cost output in *cost.
  CellId CheapestNullableCell(TupleId t,
                              const std::vector<AttributeId>& attrs,
                              double* cost) {
    CellId best = -1;
    *cost = kInfeasible;
    for (AttributeId a : attrs) {
      CellId c = eq_.Cell(t, a);
      double null_cost = SetNullCost(c);
      if (null_cost < *cost) {
        *cost = null_cost;
        best = c;
      }
    }
    return best;
  }

  void ApplySetConstant(CellId cell, const Value& v) {
    bool ok = eq_.SetConstant(cell, v);
    UC_CHECK(ok);
    SyncClass(cell);
  }

  void ApplySetNull(CellId cell) {
    bool ok = eq_.SetNull(cell);
    UC_CHECK(ok);
    ++stats_.nulls_introduced;
    SyncClass(cell);
  }

  /// Resolves all current violations of a constant CFD; returns whether any
  /// change was made. Only tuples touched since the rule's previous scan
  /// began are examined, as the loop reaches them; an untouched one is as
  /// that scan left it, and its anomaly, if it was one, is counted again.
  bool ResolveConstantCfd(RuleId rule) {
    const Cfd& cfd = ruleset_.cfd(rule);
    const AttributeId b = cfd.rhs()[0];
    const Value& target = cfd.rhs_pattern()[0].value();
    const uint32_t since = groups_.BeginScan(rule);
    ScanAnomalies& anomalies = scan_anomalies_[static_cast<size_t>(rule)];
    if (since == 0) {
      anomalies.of_tuple.assign(static_cast<size_t>(view_.size()), 0);
    }
    bool changed = false;
    for (TupleId t = 0; t < view_.size(); ++t) {
      if (!view_.live(t)) continue;
      if (!groups_.TouchedSince(t, since)) continue;
      uint8_t& anomalous = anomalies.of_tuple[static_cast<size_t>(t)];
      anomalies.count -= anomalous;
      anomalous = 0;
      if (!cfd.MatchesLhs(view_.tuple(t))) continue;
      if (cfd.RhsSatisfied(view_.tuple(t))) continue;
      // Option 1: fix the RHS (to the constant, or upgrade to null).
      CellId rhs_cell = eq_.Cell(t, b);
      double fix_cost = SetConstantCost(rhs_cell, target);
      // Option 2: break the pattern match by nulling an LHS cell.
      double break_cost;
      CellId break_cell = CheapestNullableCell(t, cfd.lhs(), &break_cost);
      if (fix_cost == kInfeasible && break_cost == kInfeasible) {
        anomalous = 1;
        ++anomalies.count;
        continue;
      }
      if (fix_cost <= break_cost) {
        ApplySetConstant(rhs_cell, target);
      } else {
        ApplySetNull(break_cell);
      }
      changed = true;
    }
    stats_.anomalies += anomalies.count;
    return changed;
  }

  /// Resolves all current violations of a variable CFD pairwise within each
  /// conflicting group, then enriches original nulls from the group
  /// consensus (Example 1.1 step (d): t4[St] is filled from t3 once the
  /// group agrees). Only the dirty groups are examined, by first member, as
  /// the groups were when the call began; a merge that rewrites a member of
  /// a later, clean group queues that group too. A clean group's conflicts
  /// are all anomalies, and only its anomaly count is added again.
  bool ResolveVariableCfd(RuleId rule) {
    const Cfd& cfd = ruleset_.cfd(rule);
    const AttributeId b = cfd.rhs()[0];
    groups_.Open(rule, [this, &cfd, b](TupleId t) {
      const data::Tuple& tuple = view_.tuple(t);
      if (!cfd.MatchesLhs(tuple)) return VcfdGroups::Slot::kNone;
      if (!tuple.value(b).is_null()) return VcfdGroups::Slot::kValued;
      // Only cells that were null in the input are enrichable; nulls this
      // phase introduced are final (lattice top).
      return eq_.target_kind(eq_.Cell(t, b)) == TargetKind::kUnfixed
                 ? VcfdGroups::Slot::kNull
                 : VcfdGroups::Slot::kNone;
    });
    bool changed = false;
    for (VcfdGroups::GroupId g; (g = groups_.Next()) >= 0;) {
      const TupleId anchor = groups_.first_valued(g);
      if (groups_.next(anchor) < 0) continue;  // one member cannot conflict
      // Frequency of each RHS value within the group, as the members' value
      // ids sorted: on cost ties the majority value wins (with
      // zero-confidence cells every change is free, and majority is by far
      // the better heuristic). Counted once, before any pair is resolved.
      votes_.clear();
      for (TupleId t = anchor; t >= 0; t = groups_.next(t)) {
        votes_.push_back(view_.tuple(t).value(b).id());
      }
      std::sort(votes_.begin(), votes_.end());
      VcfdGroups::Tally tally;
      for (TupleId t = groups_.next(anchor); t >= 0; t = groups_.next(t)) {
        // Re-validate on the live view: earlier resolutions may have fixed
        // this pair or nulled its cells already.
        if (!cfd.MatchesLhs(view_.tuple(anchor)) ||
            !cfd.MatchesLhs(view_.tuple(t))) {
          continue;
        }
        if (!view_.tuple(anchor).ProjectionEquals(view_.tuple(t),
                                                  cfd.lhs())) {
          continue;
        }
        if (Value::SqlEquals(view_.tuple(anchor).value(b),
                             view_.tuple(t).value(b))) {
          continue;
        }
        if (ResolveVariablePair(cfd, anchor, t, b)) {
          changed = true;
        } else {
          ++tally.anomalies;
        }
      }
      groups_.SetTally(g, tally);
    }
    stats_.anomalies += groups_.tally_sum().anomalies;
    // Enrichment: a null cell joins its group's consensus value, in order
    // of the groups' first null member. Enriching touches only the null's
    // own tuple (an unfixed class is a singleton), so no group is dirtied
    // from here on.
    std::vector<std::pair<TupleId, VcfdGroups::GroupId>> enrich;
    for (VcfdGroups::GroupId g : groups_.visited()) {
      const TupleId first_null = groups_.first_null(g);
      if (first_null >= 0 && groups_.first_valued(g) >= 0) {
        enrich.emplace_back(first_null, g);
      }
    }
    std::sort(enrich.begin(), enrich.end());
    for (const auto& [first_null, g] : enrich) {
      // The conflict resolution above ran first; use the (possibly updated)
      // live value of the group's anchor and require group agreement.
      const TupleId anchor = groups_.first_valued(g);
      const Value consensus = view_.tuple(anchor).value(b);
      if (consensus.is_null()) continue;
      bool agrees = true;
      for (TupleId t = anchor; t >= 0; t = groups_.next(t)) {
        if (!Value::SqlEquals(view_.tuple(t).value(b), consensus)) {
          agrees = false;
          break;
        }
      }
      if (!agrees) continue;
      for (TupleId t = first_null; t >= 0; t = groups_.next(t)) {
        CellId cell = eq_.Cell(t, b);
        if (eq_.target_kind(cell) != TargetKind::kUnfixed) continue;
        if (!view_.tuple(t).value(b).is_null()) continue;
        ApplySetConstant(cell, consensus);
        changed = true;
      }
    }
    groups_.Close();
    return changed;
  }

  /// Resolves one violating pair by a merge or by nulling an LHS cell,
  /// whichever costs less; false when neither is feasible (an anomaly).
  /// Group majority comes from votes_.
  bool ResolveVariablePair(const Cfd& cfd, TupleId t1, TupleId t2,
                           AttributeId b) {
    CellId c1 = eq_.Cell(t1, b);
    CellId c2 = eq_.Cell(t2, b);
    const Value v1 = view_.tuple(t1).value(b);
    const Value v2 = view_.tuple(t2).value(b);
    // Option 1: merge the RHS classes, keeping the cheaper value (group
    // majority breaks cost ties). Frozen classes force their constant.
    double merge_cost = kInfeasible;
    Value winner;
    const bool f1 = eq_.frozen(c1);
    const bool f2 = eq_.frozen(c2);
    if (f1 && f2) {
      // Different constants (we are at a violation): merge impossible.
    } else if (f1 || f2) {
      winner = f1 ? v1 : v2;
      merge_cost = ClassRetargetCost(f1 ? c2 : c1, winner);
    } else {
      double cost1 = ClassRetargetCost(c2, v1) + ClassRetargetCost(c1, v1);
      double cost2 = ClassRetargetCost(c1, v2) + ClassRetargetCost(c2, v2);
      auto votes = [this](const Value& v) {
        const auto [first, last] =
            std::equal_range(votes_.begin(), votes_.end(), v.id());
        return last - first;
      };
      if (cost1 < cost2) {
        winner = v1;
      } else if (cost2 < cost1) {
        winner = v2;
      } else {
        winner = votes(v1) >= votes(v2) ? v1 : v2;
      }
      merge_cost = std::min(cost1, cost2);
    }
    // Option 2: detach t2 (or t1) from the group by nulling an LHS cell.
    double break2_cost;
    CellId break2 = CheapestNullableCell(t2, cfd.lhs(), &break2_cost);
    double break1_cost;
    CellId break1 = CheapestNullableCell(t1, cfd.lhs(), &break1_cost);
    double break_cost = std::min(break1_cost, break2_cost);
    CellId break_cell = break1_cost <= break2_cost ? break1 : break2;

    if (merge_cost == kInfeasible && break_cost == kInfeasible) return false;
    if (merge_cost <= break_cost) {
      if (f1 || f2) {
        // Equalize against a frozen class WITHOUT union: unioning would
        // freeze the dirty cell forever, and a later rule constraining the
        // same cell (e.g. a nation->region constant CFD whose LHS is also
        // frozen) would have no resolution left. Setting the constant keeps
        // the violation resolved while the cell can still upgrade to null.
        ApplySetConstant(f1 ? c2 : c1, winner);
      } else {
        bool ok = eq_.Merge(c1, c2, winner);
        UC_CHECK(ok);
        ++stats_.merges;
        SyncClass(c1);
      }
    } else {
      ApplySetNull(break_cell);
    }
    return true;
  }

  /// Resolves all current violations of an MD. After a fix the tuple's
  /// matches are re-derived on the live view (the written attribute may
  /// itself appear in the premise, as in ψ's FN clause); each re-derivation
  /// follows a lattice upgrade, so the inner loop is bounded.
  bool ResolveMd(RuleId rule) {
    const Md& md = ruleset_.md(rule);
    const rules::MdAction& action = md.actions()[0];
    std::vector<AttributeId> premise_attrs;
    premise_attrs.reserve(md.premise().size());
    for (const rules::MdClause& c : md.premise()) {
      premise_attrs.push_back(c.data_attr);
    }
    bool changed = false;
    for (TupleId t = 0; t < view_.size(); ++t) {
      if (!view_.live(t)) continue;
      // MD premises depend only on this tuple's values and the (static)
      // master data: skip tuples untouched since the last pass.
      if (!groups_.TouchedSincePreviousPass(t)) continue;
      bool tuple_changed = true;
      while (tuple_changed) {
        tuple_changed = false;
      for (TupleId s : matches_.Matches(rule, t)) {
        stats_.md_matches.emplace_back(t, s);
        const Value& master_value = dm_.tuple(s).value(action.master_attr);
        if (Value::SqlEquals(view_.tuple(t).value(action.data_attr),
                             master_value)) {
          continue;
        }
        // Option 1: adopt the master value (or upgrade to null).
        CellId e_cell = eq_.Cell(t, action.data_attr);
        double fix_cost = master_value.is_null()
                              ? SetNullCost(e_cell)
                              : SetConstantCost(e_cell, master_value);
        // Option 2: break the premise.
        double break_cost;
        CellId break_cell =
            CheapestNullableCell(t, premise_attrs, &break_cost);
        if (fix_cost == kInfeasible && break_cost == kInfeasible) {
          ++stats_.anomalies;
          continue;
        }
        if (fix_cost <= break_cost) {
          if (master_value.is_null()) {
            ApplySetNull(e_cell);
          } else {
            ApplySetConstant(e_cell, master_value);
          }
        } else {
          ApplySetNull(break_cell);
        }
        changed = true;
        tuple_changed = true;
        break;  // re-derive this tuple's matches on the live view
      }
      }
    }
    return changed;
  }

  /// Per constant CFD: the tuples its last examination of them counted as
  /// anomalies, and how many there are.
  struct ScanAnomalies {
    std::vector<uint8_t> of_tuple;
    int count = 0;
  };

  Relation& view_;
  Relation original_;
  RunMatchTable& matches_;
  const Relation& dm_;
  const RuleSet& ruleset_;
  const HRepairOptions& options_;
  EquivalenceClasses eq_;
  VcfdGroups groups_;  // the vCFD groups; tracks touched tuples too
  HRepairStats stats_;
  RuleId current_rule_ = -1;         // rule whose violations are being fixed
  std::vector<RuleId> last_rule_;    // per cell: last rule that rewrote it
  std::vector<ScanAnomalies> scan_anomalies_;  // by rule id
  std::vector<data::ValueId> votes_;  // the examined group's RHS ids, sorted
};

}  // namespace

HRepairStats HRepair(Relation* d, const MatchEnvironment& env,
                     const HRepairOptions& options, RunMatchTable* matches) {
  UC_CHECK(d != nullptr);
  std::optional<RunMatchTable> own;
  if (matches == nullptr) matches = &own.emplace(env, *d);
  UC_CHECK(&matches->relation() == d && &matches->env() == &env);
  HRepairRun run(d, env, options, *matches);
  return run.Run();
}

}  // namespace core
}  // namespace uniclean
