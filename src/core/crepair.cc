#include "core/crepair.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "data/group_key.h"

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

/// One entry of the per-variable-CFD hash table Hϕ (§5.2): the pending
/// tuples of a group ∆(ȳ) and the group's asserted RHS value once known.
struct GroupEntry {
  bool val_set = false;
  Value val;
  std::vector<TupleId> list;
};

/// The full state of one cRepair run (Fig. 4's indexing structures).
class CRepairRun {
 public:
  CRepairRun(Relation* d, const MatchEnvironment& env,
             const CRepairOptions& options, RunMatchTable& matches)
      : d_(*d),
        matches_(matches),
        dm_(env.master()),
        ruleset_(env.rules()),
        options_(options) {
    const size_t n = static_cast<size_t>(d_.size());
    const size_t r = static_cast<size_t>(ruleset_.num_rules());
    const size_t arity = static_cast<size_t>(d_.schema().arity());
    asserted_.assign(n * arity, 0);
    in_pending_.assign(n * r, 0);
    count_.assign(n * r, 0);

    rules_by_lhs_attr_.assign(arity, {});
    vcfds_by_rhs_attr_.assign(arity, {});
    lhs_required_.assign(r, 0);
    groups_.resize(r);
    for (RuleId rule = 0; rule < ruleset_.num_rules(); ++rule) {
      std::vector<AttributeId> unique_lhs = ruleset_.DataLhs(rule);
      std::sort(unique_lhs.begin(), unique_lhs.end());
      unique_lhs.erase(std::unique(unique_lhs.begin(), unique_lhs.end()),
                       unique_lhs.end());
      lhs_required_[static_cast<size_t>(rule)] =
          static_cast<int>(unique_lhs.size());
      for (AttributeId a : unique_lhs) {
        rules_by_lhs_attr_[static_cast<size_t>(a)].push_back(rule);
      }
      if (ruleset_.kind(rule) == rules::RuleKind::kVariableCfd) {
        // Update() only needs the variable CFDs whose RHS is the asserted
        // attribute; index them once instead of scanning all vCFDs per call.
        vcfds_by_rhs_attr_[static_cast<size_t>(ruleset_.DataRhs(rule))]
            .push_back(rule);
      }
    }
  }

  CRepairStats Run() {
    // Initialization (Fig. 4 lines 1-6): assert every cell with cf >= η.
    // Tombstoned tuples never enter the worklist here, so they stay out of
    // every group table and queue downstream.
    for (TupleId t = 0; t < d_.size(); ++t) {
      if ((t & (kCancelStride - 1)) == 0 && Interrupted()) return stats_;
      if (!d_.live(t)) continue;
      // Rules with an empty premise apply unconditionally.
      for (RuleId rule = 0; rule < ruleset_.num_rules(); ++rule) {
        if (lhs_required_[static_cast<size_t>(rule)] == 0) {
          worklist_.emplace_back(t, rule);
        }
      }
      for (AttributeId a : ruleset_.RuleAttributes()) {
        if (d_.tuple(t).confidence(a) >= options_.eta) {
          Update(t, a);
        }
      }
    }
    // Main loop (Fig. 4 lines 7-15). The token is polled only here, at the
    // top of a pop — i.e. between committed Fix() applications — so an
    // interrupted run never leaves a half-written cell.
    while (!worklist_.empty()) {
      if ((stats_.rule_applications & (kCancelStride - 1)) == 0 &&
          Interrupted()) {
        return stats_;
      }
      auto [t, rule] = worklist_.front();
      worklist_.pop_front();
      ++stats_.rule_applications;
      switch (ruleset_.kind(rule)) {
        case rules::RuleKind::kVariableCfd:
          VCfdInfer(t, rule);
          break;
        case rules::RuleKind::kConstantCfd:
          CCfdInfer(t, rule);
          break;
        case rules::RuleKind::kMd:
          MdInfer(t, rule);
          break;
      }
    }
    return stats_;
  }

 private:
  // Poll granularity for the cancellation token: every 64 worklist pops /
  // init tuples. Cheap enough to keep cancellation latency in the
  // microseconds on the HOSP workloads without a measurable polling cost.
  static constexpr int64_t kCancelStride = 64;

  bool Interrupted() {
    if (options_.cancel == nullptr || !options_.cancel->IsCancelled()) {
      return false;
    }
    stats_.interrupt = options_.cancel->status();
    return true;
  }

  size_t CellIndex(TupleId t, AttributeId a) const {
    return static_cast<size_t>(t) *
               static_cast<size_t>(d_.schema().arity()) +
           static_cast<size_t>(a);
  }
  size_t RuleIndex(TupleId t, RuleId rule) const {
    return static_cast<size_t>(t) *
               static_cast<size_t>(ruleset_.num_rules()) +
           static_cast<size_t>(rule);
  }

  bool Asserted(TupleId t, AttributeId a) const {
    return asserted_[CellIndex(t, a)] != 0;
  }

  /// Procedure update (Fig. 5): t[A] has just become asserted.
  void Update(TupleId t, AttributeId a) {
    size_t cell = CellIndex(t, a);
    if (asserted_[cell]) return;  // propagate each assertion exactly once
    asserted_[cell] = 1;
    for (RuleId rule : rules_by_lhs_attr_[static_cast<size_t>(a)]) {
      size_t idx = RuleIndex(t, rule);
      if (++count_[idx] == lhs_required_[static_cast<size_t>(rule)]) {
        worklist_.emplace_back(t, rule);
      }
    }
    // Variable CFDs waiting in P[t] whose RHS is A: t may now be the donor.
    for (RuleId rule : vcfds_by_rhs_attr_[static_cast<size_t>(a)]) {
      size_t idx = RuleIndex(t, rule);
      if (!in_pending_[idx]) continue;
      in_pending_[idx] = 0;
      auto& table = groups_[static_cast<size_t>(rule)];
      auto it =
          table.find(GroupKey::Project(d_.tuple(t), ruleset_.cfd(rule).lhs()));
      if (it == table.end() || !it->second.val_set) {
        worklist_.emplace_back(t, rule);
      } else if (it->second.val != d_.tuple(t).value(a)) {
        ++stats_.conflicts;
      }
    }
  }

  /// Writes `v` into t[A] (confidence η), marking a deterministic fix when
  /// the value actually changes, then propagates. `rule` justifies the write.
  void Fix(TupleId t, AttributeId a, const Value& v, RuleId rule) {
    data::Tuple& tuple = d_.mutable_tuple(t);
    if (tuple.value(a) != v) {
      if (options_.on_fix) options_.on_fix(t, a, tuple.value(a), v, rule);
      tuple.set_value(a, v);
      tuple.set_mark(a, FixMark::kDeterministic);
      ++stats_.deterministic_fixes;
    } else {
      ++stats_.confidence_upgrades;
    }
    tuple.set_confidence(a, options_.eta);
    Update(t, a);
  }

  /// Procedure vCFDInfer (Fig. 5).
  void VCfdInfer(TupleId t, RuleId rule) {
    const Cfd& cfd = ruleset_.cfd(rule);
    if (!cfd.MatchesLhs(d_.tuple(t))) return;
    const AttributeId b = cfd.rhs()[0];
    GroupEntry& entry = groups_[static_cast<size_t>(
        rule)][GroupKey::Project(d_.tuple(t), cfd.lhs())];
    if (Asserted(t, b)) {
      if (!entry.val_set) {
        // t supplies the group's asserted value; fix everyone waiting.
        entry.val_set = true;
        entry.val = d_.tuple(t).value(b);
        for (TupleId waiting : entry.list) {
          if (waiting == t || Asserted(waiting, b)) continue;
          Fix(waiting, b, entry.val, rule);
        }
        entry.list.clear();
      } else if (entry.val != d_.tuple(t).value(b)) {
        ++stats_.conflicts;  // two asserted donors disagree (§5.1(3)(c))
      }
      return;
    }
    if (entry.val_set) {
      Fix(t, b, entry.val, rule);
    } else {
      entry.list.push_back(t);
      in_pending_[RuleIndex(t, rule)] = 1;  // P[t].add(ξ)
    }
  }

  /// Procedure cCFDInfer (Fig. 5).
  void CCfdInfer(TupleId t, RuleId rule) {
    const Cfd& cfd = ruleset_.cfd(rule);
    if (!cfd.MatchesLhs(d_.tuple(t))) return;
    const AttributeId b = cfd.rhs()[0];
    const Value& target = cfd.rhs_pattern()[0].value();
    if (Asserted(t, b)) {
      if (d_.tuple(t).value(b) != target) ++stats_.conflicts;
      return;
    }
    Fix(t, b, target, rule);
  }

  /// Procedure MDInfer (Fig. 5).
  void MdInfer(TupleId t, RuleId rule) {
    const Md& md = ruleset_.md(rule);
    TupleId s = matches_.FindFirstMatch(rule, t);
    if (s < 0) return;
    stats_.md_matches.emplace_back(t, s);
    const rules::MdAction& action = md.actions()[0];
    const Value& master_value = dm_.tuple(s).value(action.master_attr);
    if (master_value.is_null()) return;
    if (Asserted(t, action.data_attr)) {
      if (d_.tuple(t).value(action.data_attr) != master_value) {
        ++stats_.conflicts;
      }
      return;
    }
    Fix(t, action.data_attr, master_value, rule);
  }

  Relation& d_;
  RunMatchTable& matches_;
  const Relation& dm_;
  const RuleSet& ruleset_;
  const CRepairOptions& options_;
  CRepairStats stats_;

  std::vector<uint8_t> asserted_;    // per cell
  std::vector<uint8_t> in_pending_;  // P[t] membership, per (t, rule)
  std::vector<int> count_;           // count[t, ξ], per (t, rule)
  std::vector<int> lhs_required_;    // |unique LHS(ξ)|
  std::vector<std::vector<RuleId>> rules_by_lhs_attr_;
  std::vector<std::vector<RuleId>> vcfds_by_rhs_attr_;  // variable CFDs only
  // Hϕ per rule id (populated for variable CFDs, empty otherwise).
  std::vector<std::unordered_map<GroupKey, GroupEntry, GroupKeyHash>> groups_;
  std::deque<std::pair<TupleId, RuleId>> worklist_;  // the queues Q[t]
};

}  // namespace

CRepairStats CRepair(Relation* d, const MatchEnvironment& env,
                     const CRepairOptions& options, RunMatchTable* matches) {
  UC_CHECK(d != nullptr);
  std::optional<RunMatchTable> own;
  if (matches == nullptr) matches = &own.emplace(env, *d);
  UC_CHECK(&matches->relation() == d && &matches->env() == &env);
  CRepairRun run(d, env, options, *matches);
  return run.Run();
}

}  // namespace core
}  // namespace uniclean
