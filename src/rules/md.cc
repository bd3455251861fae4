#include "rules/md.h"

#include "common/check.h"

namespace uniclean {
namespace rules {

Md::Md(std::string name, std::vector<MdClause> premise,
       std::vector<MdAction> actions)
    : name_(std::move(name)),
      premise_(std::move(premise)),
      actions_(std::move(actions)) {}

Md Md::Make(std::string name, std::vector<MdClause> premise,
            std::vector<MdAction> actions) {
  UC_CHECK(!actions.empty()) << "MD " << name << ": empty action list";
  return Md(std::move(name), std::move(premise), std::move(actions));
}

std::vector<Md> Md::Normalize() const {
  std::vector<Md> out;
  if (normalized()) {
    out.push_back(*this);
    return out;
  }
  for (size_t i = 0; i < actions_.size(); ++i) {
    out.push_back(Md(name_ + "." + std::to_string(i), premise_, {actions_[i]}));
  }
  return out;
}

bool Md::PremiseHolds(const data::Tuple& t, const data::Tuple& s) const {
  for (const MdClause& c : premise_) {
    const data::Value& dv = t.value(c.data_attr);
    const data::Value& mv = s.value(c.master_attr);
    if (dv.is_null() || mv.is_null()) return false;
    // Identical interned ids satisfy any similarity predicate (distance 0 /
    // similarity 1); only distinct strings need the metric.
    if (dv == mv) continue;
    if (c.predicate.is_equality()) return false;
    if (!c.predicate.Evaluate(dv.view(), mv.view())) return false;
  }
  return true;
}

Md Md::WithExtraEqualities(const std::vector<MdClause>& extra,
                           const std::string& new_name) const {
  std::vector<MdClause> premise = premise_;
  for (const MdClause& c : extra) premise.push_back(c);
  return Md(new_name, std::move(premise), actions_);
}

std::string Md::ToString(const data::Schema& data_schema,
                         const data::Schema& master_schema) const {
  std::string out = name_ + ": ";
  for (size_t i = 0; i < premise_.size(); ++i) {
    if (i > 0) out += " & ";
    const MdClause& c = premise_[i];
    out += data_schema.relation_name() + "[" +
           data_schema.attribute_name(c.data_attr) + "]";
    if (c.predicate.is_equality()) {
      out += "=";
    } else {
      out += "~" + c.predicate.ToString() + " ";
    }
    out += master_schema.relation_name() + "[" +
           master_schema.attribute_name(c.master_attr) + "]";
  }
  out += " -> ";
  for (size_t i = 0; i < actions_.size(); ++i) {
    if (i > 0) out += " & ";
    out += data_schema.relation_name() + "[" +
           data_schema.attribute_name(actions_[i].data_attr) + "]:=" +
           master_schema.relation_name() + "[" +
           master_schema.attribute_name(actions_[i].master_attr) + "]";
  }
  return out;
}

NegativeMd::NegativeMd(
    std::string name,
    std::vector<std::pair<data::AttributeId, data::AttributeId>> inequalities,
    std::vector<MdAction> blocked)
    : name_(std::move(name)),
      inequalities_(std::move(inequalities)),
      blocked_(std::move(blocked)) {}

NegativeMd NegativeMd::Make(
    std::string name,
    std::vector<std::pair<data::AttributeId, data::AttributeId>> inequalities,
    std::vector<MdAction> blocked) {
  UC_CHECK(!inequalities.empty())
      << "negative MD " << name << ": empty premise";
  UC_CHECK(!blocked.empty()) << "negative MD " << name << ": empty RHS";
  return NegativeMd(std::move(name), std::move(inequalities),
                    std::move(blocked));
}

std::vector<Md> EmbedNegativeMds(const std::vector<Md>& positives,
                                 const std::vector<NegativeMd>& negatives) {
  // The Prop. 2.6 algorithm, with one refinement over its literal statement:
  // a negative MD's equality clauses are folded only into positive MDs whose
  // action it actually blocks (the proof normalizes negative MDs to a single
  // blocked pair; folding into unrelated positives would needlessly restrict
  // them). Example 2.5 behaves identically under both readings because ψ−
  // blocks every identification pair.
  std::vector<Md> out;
  for (const Md& pos : positives) {
    for (const Md& psi : pos.Normalize()) {
      std::vector<MdClause> extra;
      for (const NegativeMd& neg : negatives) {
        bool blocks = false;
        for (const MdAction& b : neg.blocked()) {
          if (b == psi.actions()[0]) {
            blocks = true;
            break;
          }
        }
        if (!blocks) continue;
        for (const auto& [data_attr, master_attr] : neg.inequalities()) {
          extra.push_back(MdClause{data_attr, master_attr,
                                   similarity::SimilarityPredicate::Equals()});
        }
      }
      if (extra.empty()) {
        out.push_back(psi);
      } else {
        out.push_back(psi.WithExtraEqualities(extra, psi.name() + "+neg"));
      }
    }
  }
  return out;
}

bool Satisfies(const data::Relation& d, const data::Relation& dm,
               const Md& md) {
  UC_CHECK(md.normalized());
  const MdAction& action = md.actions()[0];
  for (const data::Tuple& t : d.tuples()) {
    for (const data::Tuple& s : dm.tuples()) {
      if (!md.PremiseHolds(t, s)) continue;
      if (!data::Value::SqlEquals(t.value(action.data_attr),
                                  s.value(action.master_attr))) {
        return false;
      }
    }
  }
  return true;
}

bool SatisfiesAll(const data::Relation& d, const data::Relation& dm,
                  const std::vector<Md>& gamma) {
  for (const Md& md : gamma) {
    for (const Md& n : md.Normalize()) {
      if (!Satisfies(d, dm, n)) return false;
    }
  }
  return true;
}

}  // namespace rules
}  // namespace uniclean
