// RuleSet: the set Θ = Σ ∪ Γ of data quality rules (§3), held in normalized
// form (single-attribute RHS, negative MDs embedded into positive ones), with
// a unified per-rule view used by the cleaning engines: every rule exposes
// the data-side premise attributes LHS(ξ) and the single written attribute
// RHS(ξ).

#ifndef UNICLEAN_RULES_RULESET_H_
#define UNICLEAN_RULES_RULESET_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "data/schema.h"
#include "rules/cfd.h"
#include "rules/md.h"

namespace uniclean {
namespace rules {

/// How a normalized rule fixes errors (§3.1's three cleaning-rule shapes).
enum class RuleKind {
  kConstantCfd,  ///< writes the RHS pattern constant
  kVariableCfd,  ///< copies the RHS value from another tuple in the group
  kMd,           ///< copies the RHS value from a matching master tuple
};

/// Identifier of a rule within a RuleSet: 0..num_rules()-1. CFDs come first,
/// then MDs.
using RuleId = int;

class RuleSet {
 public:
  /// Normalizes and validates the rules against the schemas. Negative MDs
  /// are embedded via Prop. 2.6. Fails on out-of-range attribute ids.
  static Result<RuleSet> Make(data::SchemaPtr data_schema,
                              data::SchemaPtr master_schema,
                              std::vector<Cfd> cfds, std::vector<Md> mds,
                              std::vector<NegativeMd> negative_mds = {});

  const data::Schema& data_schema() const { return *data_schema_; }
  const data::Schema& master_schema() const { return *master_schema_; }
  const data::SchemaPtr& data_schema_ptr() const { return data_schema_; }
  const data::SchemaPtr& master_schema_ptr() const { return master_schema_; }

  /// Normalized CFDs (Σ).
  const std::vector<Cfd>& cfds() const { return cfds_; }
  /// Normalized positive MDs (Γ), negative MDs already embedded.
  const std::vector<Md>& mds() const { return mds_; }

  int num_rules() const {
    return static_cast<int>(cfds_.size() + mds_.size());
  }
  bool IsCfd(RuleId id) const {
    return id < static_cast<RuleId>(cfds_.size());
  }
  RuleKind kind(RuleId id) const;
  const Cfd& cfd(RuleId id) const;
  const Md& md(RuleId id) const;
  const std::string& rule_name(RuleId id) const;

  /// Data-side premise attributes LHS(ξ).
  const std::vector<data::AttributeId>& DataLhs(RuleId id) const;
  /// Data-side written attribute RHS(ξ) (rules are normalized).
  data::AttributeId DataRhs(RuleId id) const;

  /// attr(Σ ∪ Γ): all data-side attributes mentioned by any rule, sorted.
  const std::vector<data::AttributeId>& RuleAttributes() const {
    return rule_attributes_;
  }

 private:
  RuleSet() = default;

  data::SchemaPtr data_schema_;
  data::SchemaPtr master_schema_;
  std::vector<Cfd> cfds_;
  std::vector<Md> mds_;
  std::vector<std::vector<data::AttributeId>> lhs_cache_;  // per rule id
  std::vector<data::AttributeId> rule_attributes_;
};

}  // namespace rules
}  // namespace uniclean

#endif  // UNICLEAN_RULES_RULESET_H_
