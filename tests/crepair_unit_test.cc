// Focused unit tests for the Fig. 4/5 machinery of cRepair: queue
// propagation, the variable-CFD donor / waiting-list protocol, unconditional
// rules, conflict counting and confidence upgrades.

#include <gtest/gtest.h>

#include "core/crepair.h"
#include "data/relation.h"
#include "data/schema.h"
#include "rules/parser.h"

namespace uniclean {
namespace core {
namespace {

using data::FixMark;
using data::MakeSchema;
using data::Relation;
using data::SchemaPtr;
using data::Value;

rules::RuleSet MakeRules(const std::string& text, SchemaPtr schema,
                         SchemaPtr master) {
  auto rs = rules::ParseRuleSet(text, schema, master);
  UC_CHECK(rs.ok()) << rs.status().ToString();
  return std::move(rs).value();
}

// Test-local shim with the historic (d, dm, ruleset, options) signature: a
// throwaway MatchEnvironment per call, replacing the retired env-less entry
// point.
CRepairStats TestCRepair(Relation* d, const Relation& dm,
                     const rules::RuleSet& ruleset,
                     const CRepairOptions& options = {}) {
  MatchEnvironment env(ruleset, dm);
  return core::CRepair(d, env, options);
}

/// Builds a tuple with given values and confidences.
void AddRow(Relation* d, const std::vector<std::string>& values,
            const std::vector<double>& cf) {
  data::Tuple t(d->schema().arity());
  for (int a = 0; a < d->schema().arity(); ++a) {
    t.set_value(a, Value(values[static_cast<size_t>(a)]));
    t.set_confidence(a, cf[static_cast<size_t>(a)]);
  }
  d->AddTuple(std::move(t));
}

class CRepairUnit : public ::testing::Test {
 protected:
  SchemaPtr schema_ = MakeSchema("r", {"A", "B", "C"});
  SchemaPtr master_ = MakeSchema("m", {"X", "Y"});
  Relation dm_{master_};
  CRepairOptions opts_;

  void SetUp() override { opts_.eta = 0.8; }
};

TEST_F(CRepairUnit, UnconditionalConstantRuleFiresWithoutPremise) {
  auto rs = MakeRules("CFD c: -> B='std'\n", schema_, master_);
  Relation d(schema_);
  AddRow(&d, {"a", "other", "c"}, {0.0, 0.0, 0.0});
  CRepairStats stats = TestCRepair(&d, dm_, rs, opts_);
  EXPECT_EQ(stats.deterministic_fixes, 1);
  EXPECT_EQ(d.tuple(0).value(1), Value("std"));
  EXPECT_EQ(d.tuple(0).mark(1), FixMark::kDeterministic);
  EXPECT_DOUBLE_EQ(d.tuple(0).confidence(1), opts_.eta);
}

TEST_F(CRepairUnit, ConstantRuleRequiresAssertedPremise) {
  auto rs = MakeRules("CFD c: A='1' -> B='x'\n", schema_, master_);
  Relation d(schema_);
  AddRow(&d, {"1", "wrong", "c"}, {0.5, 0.0, 0.0});  // premise below η
  CRepairStats stats = TestCRepair(&d, dm_, rs, opts_);
  EXPECT_EQ(stats.deterministic_fixes, 0);
  EXPECT_EQ(d.tuple(0).value(1), Value("wrong"));
}

TEST_F(CRepairUnit, AssertedTargetIsNeverOverwritten) {
  auto rs = MakeRules("CFD c: A='1' -> B='x'\n", schema_, master_);
  Relation d(schema_);
  AddRow(&d, {"1", "wrong", "c"}, {0.9, 0.9, 0.0});  // target asserted
  CRepairStats stats = TestCRepair(&d, dm_, rs, opts_);
  EXPECT_EQ(stats.deterministic_fixes, 0);
  EXPECT_EQ(stats.conflicts, 1);  // asserted value contradicts the rule
  EXPECT_EQ(d.tuple(0).value(1), Value("wrong"));
}

TEST_F(CRepairUnit, DonorArrivingLateStillFixesWaitingTuples) {
  // t0 joins the group with an unasserted B (waits in the list, P[t]);
  // t1's B is initially unasserted too but becomes asserted via a constant
  // rule — it then becomes the donor and fixes t0 (the update() -> P[t]
  // re-queue path of Fig. 5).
  auto rs = MakeRules(
      "CFD fd: A -> B\n"
      "CFD k: C='seed' -> B='donor-value'\n",
      schema_, master_);
  Relation d(schema_);
  AddRow(&d, {"g", "junk", "x"}, {0.9, 0.0, 0.0});      // t0: waits
  AddRow(&d, {"g", "stale", "seed"}, {0.9, 0.0, 0.9});  // t1: donor via k
  CRepairStats stats = TestCRepair(&d, dm_, rs, opts_);
  EXPECT_EQ(d.tuple(1).value(1), Value("donor-value"));
  EXPECT_EQ(d.tuple(0).value(1), Value("donor-value"));
  EXPECT_EQ(d.tuple(0).mark(1), FixMark::kDeterministic);
  EXPECT_EQ(stats.deterministic_fixes, 2);
}

TEST_F(CRepairUnit, TwoAssertedDonorsWithDifferentValuesCountConflict) {
  auto rs = MakeRules("CFD fd: A -> B\n", schema_, master_);
  Relation d(schema_);
  AddRow(&d, {"g", "v1", "c"}, {0.9, 0.9, 0.0});
  AddRow(&d, {"g", "v2", "c"}, {0.9, 0.9, 0.0});  // asserted disagreement
  CRepairStats stats = TestCRepair(&d, dm_, rs, opts_);
  EXPECT_GE(stats.conflicts, 1);
  // Neither asserted cell is modified.
  EXPECT_EQ(d.tuple(0).value(1), Value("v1"));
  EXPECT_EQ(d.tuple(1).value(1), Value("v2"));
}

TEST_F(CRepairUnit, ConfidenceUpgradeWithoutValueChange) {
  // The rule confirms an already-correct value: cf rises to η, counted as
  // an upgrade, not a fix (Fig. 5 assigns unconditionally).
  auto rs = MakeRules("CFD c: A='1' -> B='x'\n", schema_, master_);
  Relation d(schema_);
  AddRow(&d, {"1", "x", "c"}, {0.9, 0.3, 0.0});
  CRepairStats stats = TestCRepair(&d, dm_, rs, opts_);
  EXPECT_EQ(stats.deterministic_fixes, 0);
  EXPECT_EQ(stats.confidence_upgrades, 1);
  EXPECT_DOUBLE_EQ(d.tuple(0).confidence(1), opts_.eta);
  EXPECT_EQ(d.tuple(0).mark(1), FixMark::kNone);  // value unchanged
}

TEST_F(CRepairUnit, UpgradeCascadesThroughRuleChain) {
  // A='1' -> B='2' and B='2' -> C='3': fixing B asserts it, which fires the
  // second rule recursively (the update() propagation).
  auto rs = MakeRules("CFD c1: A='1' -> B='2'\nCFD c2: B='2' -> C='3'\n",
                      schema_, master_);
  Relation d(schema_);
  AddRow(&d, {"1", "junk", "junk"}, {0.9, 0.0, 0.0});
  CRepairStats stats = TestCRepair(&d, dm_, rs, opts_);
  EXPECT_EQ(stats.deterministic_fixes, 2);
  EXPECT_EQ(d.tuple(0).value(1), Value("2"));
  EXPECT_EQ(d.tuple(0).value(2), Value("3"));
}

TEST_F(CRepairUnit, MdPremiseMustBeFullyAsserted) {
  auto rs = MakeRules("MD m: A=X -> B:=Y\n", schema_, master_);
  dm_.AddRow({"key", "master-b"}, 1.0);
  Relation d(schema_);
  AddRow(&d, {"key", "junk", "c"}, {0.5, 0.0, 0.0});  // A below η
  CRepairStats stats = TestCRepair(&d, dm_, rs, opts_);
  EXPECT_EQ(stats.deterministic_fixes, 0);
  AddRow(&d, {"key", "junk", "c"}, {0.9, 0.0, 0.0});  // A asserted
  Relation d2(schema_);
  AddRow(&d2, {"key", "junk", "c"}, {0.9, 0.0, 0.0});
  CRepairStats stats2 = TestCRepair(&d2, dm_, rs, opts_);
  EXPECT_EQ(stats2.deterministic_fixes, 1);
  EXPECT_EQ(d2.tuple(0).value(1), Value("master-b"));
  ASSERT_EQ(stats2.md_matches.size(), 1u);
  EXPECT_EQ(stats2.md_matches[0], (std::pair<data::TupleId, data::TupleId>{0, 0}));
}

TEST_F(CRepairUnit, EachCellFixedAtMostOnce) {
  // Two constant rules targeting the same cell: the first one to fire wins
  // and asserts the cell; the second registers a conflict instead of
  // flip-flopping (termination argument of §5.2).
  auto rs = MakeRules("CFD c1: A='1' -> B='x'\nCFD c2: C='1' -> B='y'\n",
                      schema_, master_);
  Relation d(schema_);
  AddRow(&d, {"1", "junk", "1"}, {0.9, 0.0, 0.9});
  CRepairStats stats = TestCRepair(&d, dm_, rs, opts_);
  EXPECT_EQ(stats.deterministic_fixes, 1);
  EXPECT_EQ(stats.conflicts, 1);
  const Value& b = d.tuple(0).value(1);
  EXPECT_TRUE(b == Value("x") || b == Value("y"));
}

TEST_F(CRepairUnit, PatternMismatchDespiteAssertedPremiseIsNoOp) {
  auto rs = MakeRules("CFD c: A='1' -> B='x'\n", schema_, master_);
  Relation d(schema_);
  AddRow(&d, {"2", "junk", "c"}, {0.9, 0.0, 0.0});  // asserted but A != '1'
  CRepairStats stats = TestCRepair(&d, dm_, rs, opts_);
  EXPECT_EQ(stats.deterministic_fixes, 0);
  EXPECT_EQ(stats.conflicts, 0);
}

}  // namespace
}  // namespace core
}  // namespace uniclean
