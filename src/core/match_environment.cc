#include "core/match_environment.h"

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

}  // namespace core
}  // namespace uniclean
