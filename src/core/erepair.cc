#include "core/erepair.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/avl_tree.h"
#include "data/group_key.h"
#include "reasoning/dependency_graph.h"

namespace uniclean {
namespace core {

namespace {

using data::AttributeId;
using data::FixMark;
using data::GroupKey;
using data::GroupKeyHash;
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
             const ERepairOptions& options)
      : d_(*d),
        env_(env),
        dm_(env.master()),
        ruleset_(env.rules()),
        options_(options) {
    change_count_.assign(static_cast<size_t>(d_.size()) *
                             static_cast<size_t>(d_.schema().arity()),
                         0);
  }

  ERepairStats Run() {
    // §6.2: sort the rules via the dependency graph (SCC condensation in
    // topological order, out/in-degree ratio within SCCs).
    reasoning::DependencyGraph graph(ruleset_);
    std::vector<RuleId> order = graph.ApplicationOrder();
    touched_prev_.assign(static_cast<size_t>(d_.size()), 1);  // pass 1: all
    touched_cur_.assign(static_cast<size_t>(d_.size()), 0);
    bool changed = true;
    while (changed) {
      changed = false;
      ++stats_.passes;
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
      std::swap(touched_prev_, touched_cur_);
      touched_cur_.assign(touched_cur_.size(), 0);
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
    touched_cur_[static_cast<size_t>(t)] = 1;
  }

  /// Procedure vCFDReslove (§6.2) backed by the 2-in-1 structure of §6.3:
  /// a hash table from group key to the group's member list and value
  /// counts, plus an AVL tree keyed by entropy for the ascending walk.
  void VCfdResolve(RuleId rule) {
    const Cfd& cfd = ruleset_.cfd(rule);
    const AttributeId b = cfd.rhs()[0];
    struct Group {
      std::vector<TupleId> members;
      std::unordered_map<data::ValueId, int> value_counts;
    };
    std::unordered_map<GroupKey, Group, GroupKeyHash> table;  // HTab (Fig. 9)
    // First-encounter group order: iteration must not depend on the hash of
    // the (id-valued) keys, or fix order would vary with id assignment.
    std::vector<const Group*> group_order;
    for (TupleId t = 0; t < d_.size(); ++t) {
      if (!d_.live(t)) continue;
      const data::Tuple& tuple = d_.tuple(t);
      if (!cfd.MatchesLhs(tuple)) continue;
      if (tuple.value(b).is_null()) continue;  // satisfies trivially (§7)
      auto [it, inserted] =
          table.try_emplace(GroupKey::Project(tuple, cfd.lhs()));
      Group& g = it->second;
      if (inserted) group_order.push_back(&g);
      g.members.push_back(t);
      ++g.value_counts[tuple.value(b).id()];
    }
    // AVL tree T of Fig. 9: only groups with nonzero entropy appear. The
    // majority target is picked here, while the counts are already sorted,
    // so resolution does not re-sort.
    struct Resolvable {
      const Group* group;
      data::ValueId target;
    };
    AvlTree<double, Resolvable> tree;
    for (const Group* group_ptr : group_order) {
      const Group& group = *group_ptr;
      if (group.value_counts.size() <= 1) continue;
      // Accumulate in lexicographic value order: keeps the floating-point
      // sum (and thus the entropy threshold decision) identical to the
      // pre-interning std::map<std::string> iteration. The same order makes
      // the first strict maximum the lexicographically-smallest majority
      // value (deterministic tie-break).
      std::vector<std::pair<data::ValueId, int>> items =
          SortedValueCounts(group.value_counts);
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
      tree.Insert(GroupEntropy(counts), Resolvable{&group, best});
    }
    int skipped = tree.size();
    tree.VisitBelow(
        options_.delta2,
        [this, b, rule](double entropy, const Resolvable& entry) {
          (void)entropy;
          ResolveGroup(entry.group->members, Value::FromId(entry.target), b,
                       rule);
          return true;
        });
    // Everything not visited had entropy >= δ2.
    stats_.groups_skipped_high_entropy += skipped - resolved_this_call_;
    stats_.groups_resolved += resolved_this_call_;
    resolved_this_call_ = 0;
  }

  /// The group's (value id, count) pairs sorted lexicographically by the
  /// resolved strings — the iteration order the pre-interning
  /// std::map<std::string, int> provided for free.
  static std::vector<std::pair<data::ValueId, int>> SortedValueCounts(
      const std::unordered_map<data::ValueId, int>& value_counts) {
    std::vector<std::pair<data::ValueId, int>> items(value_counts.begin(),
                                                     value_counts.end());
    std::sort(items.begin(), items.end(),
              [](const std::pair<data::ValueId, int>& a,
                 const std::pair<data::ValueId, int>& b) {
                return Value::FromId(a.first).view() <
                       Value::FromId(b.first).view();
              });
    return items;
  }

  /// Rewrites every changeable member that disagrees with the group's
  /// (pre-computed) majority value.
  void ResolveGroup(const std::vector<TupleId>& members, const Value& target,
                    AttributeId b, RuleId rule) {
    ++resolved_this_call_;
    for (TupleId t : members) {
      if (d_.tuple(t).value(b) == target) continue;
      if (!Changeable(t, b)) continue;
      ApplyFix(t, b, target, rule);
    }
  }

  /// Procedure cCFDReslove (§6.2).
  void CCfdResolve(RuleId rule) {
    const Cfd& cfd = ruleset_.cfd(rule);
    const AttributeId b = cfd.rhs()[0];
    const Value& target = cfd.rhs_pattern()[0].value();
    for (TupleId t = 0; t < d_.size(); ++t) {
      if (!d_.live(t)) continue;
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
    const MdMatcher& matcher = *env_.matcher(rule);
    for (TupleId t = 0; t < d_.size(); ++t) {
      if (!d_.live(t)) continue;
      // MD premises depend only on this tuple and the static master data:
      // skip tuples untouched since the previous pass.
      if (!touched_prev_[static_cast<size_t>(t)] &&
          !touched_cur_[static_cast<size_t>(t)]) {
        continue;
      }
      TupleId s = matcher.FindFirstMatch(d_.tuple(t));
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
  const MatchEnvironment& env_;
  const Relation& dm_;
  const RuleSet& ruleset_;
  const ERepairOptions& options_;
  ERepairStats stats_;
  int resolved_this_call_ = 0;

  std::vector<int> change_count_;  // per cell
  std::vector<uint8_t> touched_prev_;  // tuples changed in the last pass
  std::vector<uint8_t> touched_cur_;   // tuples changed in this pass
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
                     const ERepairOptions& options) {
  UC_CHECK(d != nullptr);
  ERepairRun run(d, env, options);
  return run.Run();
}

}  // namespace core
}  // namespace uniclean
