#include "core/match_environment.h"

#include "common/check.h"

namespace uniclean {
namespace core {

MatchEnvironment::MatchEnvironment(const rules::RuleSet& rules,
                                   const data::Relation& master,
                                   const MdMatcherOptions& options)
    : MatchEnvironment(rules, master, options, RestoreTag{}) {
  for (size_t slot = 0; slot < matchers_.size(); ++slot) {
    matchers_[slot] =
        std::make_unique<MdMatcher>(rules.md(owners_[slot]), master, options_);
  }
}

MatchEnvironment::MatchEnvironment(const rules::RuleSet& rules,
                                   const data::Relation& master,
                                   const MdMatcherOptions& options,
                                   RestoreTag)
    : rules_(&rules), master_(&master), options_(options) {
  GroupRulesByPremise();
}

void MatchEnvironment::GroupRulesByPremise() {
  // Rules are visited in id order, so each slot's owner is the lowest rule
  // id of its group: the MD its matcher is built for (MdMatcher::md()).
  // Premises are compared clause by clause, in order: a reordered premise
  // gets its own matcher. Rule sets hold a handful of MDs, so the scan over
  // the owners found so far is cheaper than hashing the premises.
  const rules::RuleSet& rules = *rules_;
  matcher_slot_.assign(static_cast<size_t>(rules.num_rules()), -1);
  for (rules::RuleId rule = 0; rule < rules.num_rules(); ++rule) {
    if (rules.IsCfd(rule)) continue;
    const std::vector<rules::MdClause>& premise = rules.md(rule).premise();
    size_t slot = 0;
    while (slot < owners_.size() &&
           rules.md(owners_[slot]).premise() != premise) {
      ++slot;
    }
    if (slot == owners_.size()) owners_.push_back(rule);
    matcher_slot_[static_cast<size_t>(rule)] = static_cast<int>(slot);
  }
  matchers_.resize(owners_.size());
}

core::MemoStats MatchEnvironment::MemoStats() const {
  core::MemoStats total;
  for (const auto& matcher : matchers_) total += matcher->memo_stats();
  return total;
}

RunMatchTable::RunMatchTable(const MatchEnvironment& env,
                             const data::Relation& d)
    : env_(env), d_(d), rows_(static_cast<size_t>(env.num_matchers())) {}

const std::vector<data::TupleId>& RunMatchTable::Matches(rules::RuleId rule,
                                                         data::TupleId t) {
  const int index = env_.matcher_index(rule);
  UC_CHECK_GE(index, 0) << "RunMatchTable: rule " << rule << " is not an MD";
  Row& row = rows_[static_cast<size_t>(index)];
  if (row.matcher == nullptr) {
    row.matcher = env_.matcher(rule);
    for (const rules::MdClause& c : row.matcher->md().premise()) {
      row.attrs.push_back(c.data_attr);
    }
    const size_t n = static_cast<size_t>(d_.size());
    row.ids.assign(n * row.attrs.size(), 0);
    row.lists.assign(n, nullptr);
  }
  const data::Tuple& tuple = d_.tuple(t);
  const size_t width = row.attrs.size();
  data::ValueId* ids = row.ids.data() + static_cast<size_t>(t) * width;
  const std::vector<data::TupleId>*& list = row.lists[static_cast<size_t>(t)];
  if (list != nullptr) {
    size_t i = 0;
    while (i < width && ids[i] == tuple.value(row.attrs[i]).id()) ++i;
    if (i == width) return *list;
  }
  bool resident = false;
  const std::vector<data::TupleId>& matches =
      row.matcher->Matches(tuple, &resident);
  list = resident ? &matches : nullptr;
  for (size_t i = 0; i < width; ++i) ids[i] = tuple.value(row.attrs[i]).id();
  return matches;
}

data::TupleId RunMatchTable::FindFirstMatch(rules::RuleId rule,
                                            data::TupleId t) {
  if (!env_.matcher_options().use_memos) {
    // Nothing is resident to keep; the matcher stops at the first match.
    return env_.matcher(rule)->FindFirstMatch(d_.tuple(t));
  }
  const std::vector<data::TupleId>& matches = Matches(rule, t);
  return matches.empty() ? -1 : matches.front();
}

}  // namespace core
}  // namespace uniclean
