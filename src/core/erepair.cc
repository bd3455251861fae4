#include "core/erepair.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/vcfd_groups.h"
#include "reasoning/dependency_graph.h"

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

class ERepairRun {
 public:
  ERepairRun(Relation* d, const MatchEnvironment& env,
             const ERepairOptions& options, RunMatchTable& matches)
      : d_(*d),
        matches_(matches),
        dm_(env.master()),
        ruleset_(env.rules()),
        options_(options),
        groups_(*d, env.rules()) {
    change_count_.assign(static_cast<size_t>(d_.size()) *
                             static_cast<size_t>(d_.schema().arity()),
                         0);
  }

  ERepairStats Run() {
    // §6.2: sort the rules via the dependency graph (SCC condensation in
    // topological order, out/in-degree ratio within SCCs).
    reasoning::DependencyGraph graph(ruleset_);
    std::vector<RuleId> order = graph.ApplicationOrder();
    bool changed = true;
    while (changed) {
      changed = false;
      ++stats_.passes;
      groups_.BeginPass();
      for (RuleId rule : order) {
        // Polled between rule resolutions — every fix applied so far has
        // already been observed, so an interrupted run is never torn.
        if (options_.cancel != nullptr && options_.cancel->IsCancelled()) {
          stats_.interrupt = options_.cancel->status();
          return stats_;
        }
        int before = stats_.reliable_fixes;
        switch (ruleset_.kind(rule)) {
          case rules::RuleKind::kVariableCfd:
            VCfdResolve(rule);
            break;
          case rules::RuleKind::kConstantCfd:
            CCfdResolve(rule);
            break;
          case rules::RuleKind::kMd:
            MdResolve(rule);
            break;
        }
        if (stats_.reliable_fixes != before) changed = true;
      }
    }
    return stats_;
  }

 private:
  size_t CellIndex(TupleId t, AttributeId a) const {
    return static_cast<size_t>(t) *
               static_cast<size_t>(d_.schema().arity()) +
           static_cast<size_t>(a);
  }

  /// A cell may be rewritten unless it is a deterministic fix, asserted by
  /// confidence, or already rewritten δ1 times.
  bool Changeable(TupleId t, AttributeId a) const {
    const data::Tuple& tuple = d_.tuple(t);
    if (tuple.mark(a) == FixMark::kDeterministic) return false;
    if (tuple.confidence(a) >= options_.eta) return false;
    return change_count_[CellIndex(t, a)] < options_.delta1;
  }

  void ApplyFix(TupleId t, AttributeId a, const Value& v, RuleId rule) {
    data::Tuple& tuple = d_.mutable_tuple(t);
    UC_CHECK(tuple.value(a) != v);
    if (options_.on_fix) options_.on_fix(t, a, tuple.value(a), v, rule);
    tuple.set_value(a, v);
    tuple.set_mark(a, FixMark::kReliable);
    ++change_count_[CellIndex(t, a)];
    ++stats_.reliable_fixes;
    groups_.Touch(t);
  }

  /// Procedure vCFDReslove (§6.2). §6.3 keeps the conflict groups in a
  /// "2-in-1" structure, a hash table from group key to members plus an
  /// AVL tree ordered by entropy, so both survive as fixes land. Here the
  /// hash half is groups_, which lives for the whole run and refiles only
  /// touched tuples. The ordered half is a sort: only groups with a changed
  /// member (dirty) can change entropy, so each call sorts just those and
  /// resolves them in ascending entropy below δ2. A clean group would
  /// resolve to nothing; it only adds its last tally to the counters.
  void VCfdResolve(RuleId rule) {
    const Cfd& cfd = ruleset_.cfd(rule);
    const AttributeId b = cfd.rhs()[0];
    groups_.Open(rule, [this, &cfd, b](TupleId t) {
      const data::Tuple& tuple = d_.tuple(t);
      // A null RHS satisfies the rule trivially (§7).
      return cfd.MatchesLhs(tuple) && !tuple.value(b).is_null()
                 ? VcfdGroups::Slot::kValued
                 : VcfdGroups::Slot::kNone;
    });
    // Only groups with nonzero entropy take part. The majority target is
    // picked here, while the counts are already sorted.
    struct Resolvable {
      double entropy;
      VcfdGroups::GroupId group;
      data::ValueId target;
    };
    std::vector<Resolvable> resolvable;
    for (VcfdGroups::GroupId g; (g = groups_.Next()) >= 0;) {
      // Accumulate in lexicographic value order: keeps the floating-point
      // sum (and thus the entropy threshold decision) identical to the
      // pre-interning std::map<std::string> iteration. The same order makes
      // the first strict maximum the lexicographically-smallest majority
      // value (deterministic tie-break).
      const std::vector<std::pair<data::ValueId, int>> items =
          SortedValueCounts(g, b);
      if (items.size() <= 1) continue;
      std::vector<int> counts;
      counts.reserve(items.size());
      for (const auto& [id, c] : items) counts.push_back(c);
      data::ValueId best = items[0].first;
      int best_count = items[0].second;
      for (const auto& [id, count] : items) {
        if (count > best_count) {
          best = id;
          best_count = count;
        }
      }
      const double entropy = GroupEntropy(counts);
      VcfdGroups::Tally tally;
      if (entropy < options_.delta2) {
        tally.resolved = 1;
        resolvable.push_back(Resolvable{entropy, g, best});
      } else {
        tally.skipped = 1;
      }
      groups_.SetTally(g, tally);
    }
    // Ascending entropy; Next() yielded the groups by first member, which
    // breaks ties.
    std::stable_sort(resolvable.begin(), resolvable.end(),
                     [](const Resolvable& x, const Resolvable& y) {
                       return x.entropy < y.entropy;
                     });
    // A fix rewrites B of a member of the group being resolved only, so no
    // other group of this rule changes (or is queued) meanwhile.
    for (const Resolvable& entry : resolvable) {
      ResolveGroup(entry.group, Value::FromId(entry.target), b, rule);
    }
    stats_.groups_resolved += groups_.tally_sum().resolved;
    stats_.groups_skipped_high_entropy += groups_.tally_sum().skipped;
    groups_.Close();
  }

  /// Group `g`'s (value id, count) pairs of attribute `b`, sorted
  /// lexicographically by the resolved strings — the iteration order the
  /// pre-interning std::map<std::string, int> provided for free.
  std::vector<std::pair<data::ValueId, int>> SortedValueCounts(
      VcfdGroups::GroupId g, AttributeId b) {
    value_ids_.clear();
    for (TupleId t = groups_.first_valued(g); t >= 0; t = groups_.next(t)) {
      value_ids_.push_back(d_.tuple(t).value(b).id());
    }
    std::sort(value_ids_.begin(), value_ids_.end());
    std::vector<std::pair<data::ValueId, int>> items;
    for (data::ValueId id : value_ids_) {
      if (items.empty() || items.back().first != id) items.emplace_back(id, 0);
      ++items.back().second;
    }
    std::sort(items.begin(), items.end(),
              [](const std::pair<data::ValueId, int>& x,
                 const std::pair<data::ValueId, int>& y) {
                return Value::FromId(x.first).view() <
                       Value::FromId(y.first).view();
              });
    return items;
  }

  /// Rewrites every changeable member of group `g` that disagrees with its
  /// (pre-computed) majority value.
  void ResolveGroup(VcfdGroups::GroupId g, const Value& target, AttributeId b,
                    RuleId rule) {
    for (TupleId t = groups_.first_valued(g); t >= 0; t = groups_.next(t)) {
      if (d_.tuple(t).value(b) == target) continue;
      if (!Changeable(t, b)) continue;
      ApplyFix(t, b, target, rule);
    }
  }

  /// Procedure cCFDReslove (§6.2). A tuple untouched since the rule's
  /// previous scan began is as that scan left it: not violating, or not
  /// changeable. Touches are read as the loop reaches each tuple.
  void CCfdResolve(RuleId rule) {
    const Cfd& cfd = ruleset_.cfd(rule);
    const AttributeId b = cfd.rhs()[0];
    const Value& target = cfd.rhs_pattern()[0].value();
    const uint32_t since = groups_.BeginScan(rule);
    for (TupleId t = 0; t < d_.size(); ++t) {
      if (!d_.live(t)) continue;
      if (!groups_.TouchedSince(t, since)) continue;
      const data::Tuple& tuple = d_.tuple(t);
      if (!cfd.MatchesLhs(tuple)) continue;
      if (cfd.RhsSatisfied(tuple)) continue;
      if (!Changeable(t, b)) continue;
      ApplyFix(t, b, target, rule);
    }
  }

  /// Procedure MDReslove (§6.2).
  void MdResolve(RuleId rule) {
    const Md& md = ruleset_.md(rule);
    const rules::MdAction& action = md.actions()[0];
    for (TupleId t = 0; t < d_.size(); ++t) {
      if (!d_.live(t)) continue;
      // MD premises depend only on this tuple and the static master data:
      // skip tuples untouched since the previous pass.
      if (!groups_.TouchedSincePreviousPass(t)) continue;
      TupleId s = matches_.FindFirstMatch(rule, t);
      if (s < 0) continue;
      stats_.md_matches.emplace_back(t, s);
      const Value& master_value = dm_.tuple(s).value(action.master_attr);
      if (master_value.is_null()) continue;
      if (Value::SqlEquals(d_.tuple(t).value(action.data_attr),
                           master_value) &&
          !d_.tuple(t).value(action.data_attr).is_null()) {
        continue;
      }
      if (d_.tuple(t).value(action.data_attr) == master_value) continue;
      if (!Changeable(t, action.data_attr)) continue;
      ApplyFix(t, action.data_attr, master_value, rule);
    }
  }

  Relation& d_;
  RunMatchTable& matches_;
  const Relation& dm_;
  const RuleSet& ruleset_;
  const ERepairOptions& options_;
  ERepairStats stats_;
  VcfdGroups groups_;  // the vCFD groups; tracks touched tuples too

  std::vector<int> change_count_;  // per cell
  std::vector<data::ValueId> value_ids_;  // SortedValueCounts scratch
};

}  // namespace

double GroupEntropy(const std::vector<int>& counts) {
  UC_CHECK(!counts.empty());
  const size_t k = counts.size();
  if (k <= 1) return 0.0;
  double n = 0;
  for (int c : counts) {
    UC_CHECK_GT(c, 0);
    n += c;
  }
  double h = 0.0;
  const double log_k = std::log(static_cast<double>(k));
  for (int c : counts) {
    double p = static_cast<double>(c) / n;
    h += p * (std::log(1.0 / p) / log_k);
  }
  return h;
}

ERepairStats ERepair(Relation* d, const MatchEnvironment& env,
                     const ERepairOptions& options, RunMatchTable* matches) {
  UC_CHECK(d != nullptr);
  std::optional<RunMatchTable> own;
  if (matches == nullptr) matches = &own.emplace(env, *d);
  UC_CHECK(&matches->relation() == d && &matches->env() == &env);
  ERepairRun run(d, env, options, *matches);
  return run.Run();
}

}  // namespace core
}  // namespace uniclean
