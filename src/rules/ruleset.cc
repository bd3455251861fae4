#include "rules/ruleset.h"

#include <algorithm>
#include <set>

#include "data/group_key.h"

namespace uniclean {
namespace rules {

namespace {

Status ValidateAttr(const data::Schema& schema, data::AttributeId id,
                    const std::string& rule_name) {
  if (id < 0 || id >= schema.arity()) {
    return Status::InvalidArgument(
        "rule " + rule_name + ": attribute id " + std::to_string(id) +
        " out of range for schema " + schema.relation_name());
  }
  return Status::OK();
}

}  // namespace

Result<RuleSet> RuleSet::Make(data::SchemaPtr data_schema,
                              data::SchemaPtr master_schema,
                              std::vector<Cfd> cfds, std::vector<Md> mds,
                              std::vector<NegativeMd> negative_mds) {
  RuleSet rs;
  rs.data_schema_ = std::move(data_schema);
  rs.master_schema_ = std::move(master_schema);
  UC_CHECK(rs.data_schema_ != nullptr);
  UC_CHECK(rs.master_schema_ != nullptr);

  for (const Cfd& cfd : cfds) {
    for (Cfd& n : cfd.Normalize()) {
      // The engines key their grouping tables on fixed-size GroupKey
      // projections of the LHS; reject wider rules here with a clean error
      // instead of aborting mid-pipeline.
      if (n.lhs().size() > data::GroupKey::kMaxParts) {
        return Status::InvalidArgument(
            "rule " + n.name() + ": LHS has " + std::to_string(n.lhs().size()) +
            " attributes; at most " + std::to_string(data::GroupKey::kMaxParts) +
            " are supported");
      }
      for (data::AttributeId a : n.lhs()) {
        UC_RETURN_IF_ERROR(ValidateAttr(*rs.data_schema_, a, n.name()));
      }
      UC_RETURN_IF_ERROR(ValidateAttr(*rs.data_schema_, n.rhs()[0], n.name()));
      rs.cfds_.push_back(std::move(n));
    }
  }
  std::vector<Md> embedded = EmbedNegativeMds(mds, negative_mds);
  for (Md& md : embedded) {
    if (md.premise().size() > data::GroupKey::kMaxParts) {
      return Status::InvalidArgument(
          "rule " + md.name() + ": premise has " +
          std::to_string(md.premise().size()) + " clauses; at most " +
          std::to_string(data::GroupKey::kMaxParts) + " are supported");
    }
    for (const MdClause& c : md.premise()) {
      UC_RETURN_IF_ERROR(ValidateAttr(*rs.data_schema_, c.data_attr,
                                      md.name()));
      UC_RETURN_IF_ERROR(ValidateAttr(*rs.master_schema_, c.master_attr,
                                      md.name()));
    }
    const MdAction& a = md.actions()[0];
    UC_RETURN_IF_ERROR(ValidateAttr(*rs.data_schema_, a.data_attr, md.name()));
    UC_RETURN_IF_ERROR(ValidateAttr(*rs.master_schema_, a.master_attr,
                                    md.name()));
    rs.mds_.push_back(std::move(md));
  }

  // Cache per-rule LHS vectors and the global attribute universe.
  std::set<data::AttributeId> universe;
  for (const Cfd& c : rs.cfds_) {
    rs.lhs_cache_.push_back(c.lhs());
    for (data::AttributeId a : c.lhs()) universe.insert(a);
    universe.insert(c.rhs()[0]);
  }
  for (const Md& m : rs.mds_) {
    std::vector<data::AttributeId> lhs;
    for (const MdClause& c : m.premise()) lhs.push_back(c.data_attr);
    rs.lhs_cache_.push_back(std::move(lhs));
    for (const MdClause& c : m.premise()) universe.insert(c.data_attr);
    universe.insert(m.actions()[0].data_attr);
  }
  rs.rule_attributes_.assign(universe.begin(), universe.end());
  return rs;
}

RuleKind RuleSet::kind(RuleId id) const {
  if (IsCfd(id)) {
    return cfd(id).IsConstantRule() ? RuleKind::kConstantCfd
                                    : RuleKind::kVariableCfd;
  }
  return RuleKind::kMd;
}

const Cfd& RuleSet::cfd(RuleId id) const {
  UC_CHECK(IsCfd(id));
  return cfds_[static_cast<size_t>(id)];
}

const Md& RuleSet::md(RuleId id) const {
  UC_CHECK(!IsCfd(id));
  UC_CHECK_LT(id, num_rules());
  return mds_[static_cast<size_t>(id) - cfds_.size()];
}

const std::string& RuleSet::rule_name(RuleId id) const {
  return IsCfd(id) ? cfd(id).name() : md(id).name();
}

const std::vector<data::AttributeId>& RuleSet::DataLhs(RuleId id) const {
  UC_CHECK_GE(id, 0);
  UC_CHECK_LT(static_cast<size_t>(id), lhs_cache_.size());
  return lhs_cache_[static_cast<size_t>(id)];
}

data::AttributeId RuleSet::DataRhs(RuleId id) const {
  return IsCfd(id) ? cfd(id).rhs()[0] : md(id).actions()[0].data_attr;
}

}  // namespace rules
}  // namespace uniclean
