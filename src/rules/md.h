// Matching dependencies across a data schema R and a master schema Rm
// (§2.2): positive MDs  ∧ (R[Aj] ≈j Rm[Bj]) -> ∧ (R[Ei] ⇋ Rm[Fi])  and
// negative MDs  ∧ (R[Aj] ≠ Rm[Bj]) -> ∨ (R[Ei] ≇ Rm[Fi]).

#ifndef UNICLEAN_RULES_MD_H_
#define UNICLEAN_RULES_MD_H_

#include <string>
#include <vector>

#include "data/relation.h"
#include "data/schema.h"
#include "similarity/predicate.h"

namespace uniclean {
namespace rules {

/// One premise clause R[A] ≈ Rm[B].
struct MdClause {
  data::AttributeId data_attr;
  data::AttributeId master_attr;
  similarity::SimilarityPredicate predicate;

  /// Same data attribute, same master attribute and the same predicate
  /// (kind, threshold and q). Normalized MDs whose premises are equal clause
  /// by clause, in order, share one core::MdMatcher.
  bool operator==(const MdClause& o) const {
    return data_attr == o.data_attr && master_attr == o.master_attr &&
           predicate == o.predicate;
  }
};

/// One identification action R[E] ⇋ Rm[F]: the cleaning rule writes the
/// master value s[F] into t[E] (§3.1).
struct MdAction {
  data::AttributeId data_attr;
  data::AttributeId master_attr;

  bool operator==(const MdAction& o) const {
    return data_attr == o.data_attr && master_attr == o.master_attr;
  }
};

/// A positive matching dependency.
class Md {
 public:
  /// Builds an MD; aborts on empty actions. `name` is a diagnostic label.
  static Md Make(std::string name, std::vector<MdClause> premise,
                 std::vector<MdAction> actions);

  const std::string& name() const { return name_; }
  const std::vector<MdClause>& premise() const { return premise_; }
  const std::vector<MdAction>& actions() const { return actions_; }

  /// True if there is a single action (§2.2 normalization).
  bool normalized() const { return actions_.size() == 1; }

  /// Splits into one MD per action, named "<name>.<i>".
  std::vector<Md> Normalize() const;

  /// Whether the premise holds between data tuple t and master tuple s.
  /// A null on either side fails the clause (§7 semantics: rules only apply
  /// to tuples that precisely match). The one premise-evaluation code path:
  /// the reference checkers and core::MdMatcher's verification all call it.
  bool PremiseHolds(const data::Tuple& t, const data::Tuple& s) const;

  /// Returns a copy with extra equality clauses prepended (used by the
  /// negative-MD embedding of Prop. 2.6).
  Md WithExtraEqualities(const std::vector<MdClause>& extra,
                         const std::string& new_name) const;

  /// Renders e.g. "psi: tran[LN]=card[LN] & tran[FN]~jw>=0.80 card[FN] ->
  /// tran[FN]:=card[FN]".
  std::string ToString(const data::Schema& data_schema,
                       const data::Schema& master_schema) const;

 private:
  Md(std::string name, std::vector<MdClause> premise,
     std::vector<MdAction> actions);

  std::string name_;
  std::vector<MdClause> premise_;
  std::vector<MdAction> actions_;
};

/// A negative matching dependency (§2.2): if all listed attribute pairs
/// differ, the tuples may not be identified on any of the blocked actions.
class NegativeMd {
 public:
  static NegativeMd Make(std::string name,
                         std::vector<std::pair<data::AttributeId,
                                               data::AttributeId>> inequalities,
                         std::vector<MdAction> blocked);

  const std::string& name() const { return name_; }
  const std::vector<std::pair<data::AttributeId, data::AttributeId>>&
  inequalities() const {
    return inequalities_;
  }
  const std::vector<MdAction>& blocked() const { return blocked_; }

 private:
  NegativeMd(std::string name,
             std::vector<std::pair<data::AttributeId, data::AttributeId>>
                 inequalities,
             std::vector<MdAction> blocked);

  std::string name_;
  std::vector<std::pair<data::AttributeId, data::AttributeId>> inequalities_;
  std::vector<MdAction> blocked_;
};

/// Proposition 2.6: folds negative MDs into the positive ones, producing a
/// set of positive MDs equivalent to Γ+ ∪ Γ−, in O(|Γ+||Γ−|) time. For each
/// positive MD whose action is blocked by a negative MD, the negative MD's
/// attribute pairs are added to the premise as equality clauses (Example
/// 2.5: adding gd = gd to ψ enforces "a male and a female may not refer to
/// the same person").
std::vector<Md> EmbedNegativeMds(const std::vector<Md>& positives,
                                 const std::vector<NegativeMd>& negatives);

/// Whether (D, Dm) |= ψ (§2.2): no more tuples of D can be matched and
/// updated against Dm. Requires ψ normalized. O(|D|·|Dm|) reference checker
/// (algorithms use the blocking index instead).
bool Satisfies(const data::Relation& d, const data::Relation& dm,
               const Md& md);

/// Whether (D, Dm) |= Γ for every MD in Γ.
bool SatisfiesAll(const data::Relation& d, const data::Relation& dm,
                  const std::vector<Md>& gamma);

}  // namespace rules
}  // namespace uniclean

#endif  // UNICLEAN_RULES_MD_H_
