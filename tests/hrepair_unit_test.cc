// Focused unit tests for hRepair's resolution choices (§7): cost-driven
// fix-vs-break decisions, null introduction, majority tie-breaking, null
// enrichment, and frozen-class interactions.

#include <gtest/gtest.h>

#include "core/crepair.h"
#include "core/hrepair.h"
#include "data/relation.h"
#include "data/schema.h"
#include "rules/parser.h"
#include "rules/violation.h"

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

void AddRow(Relation* d, const std::vector<std::string>& values,
            const std::vector<double>& cf) {
  data::Tuple t(d->schema().arity());
  for (int a = 0; a < d->schema().arity(); ++a) {
    t.set_value(a, Value(values[static_cast<size_t>(a)]));
    t.set_confidence(a, cf[static_cast<size_t>(a)]);
  }
  d->AddTuple(std::move(t));
}

// Test-local shim with the historic (d, dm, ruleset, options) signature: a
// throwaway MatchEnvironment per call, replacing the retired env-less entry
// point.
HRepairStats TestHRepair(Relation* d, const Relation& dm,
                     const rules::RuleSet& ruleset,
                     const HRepairOptions& options = {}) {
  MatchEnvironment env(ruleset, dm);
  return core::HRepair(d, env, options);
}

class HRepairUnit : public ::testing::Test {
 protected:
  SchemaPtr schema_ = MakeSchema("r", {"A", "B", "C"});
  SchemaPtr master_ = MakeSchema("m", {"X", "Y"});
  Relation dm_{master_};
};

TEST_F(HRepairUnit, ConstantCfdFixesRhsWhenCheap) {
  auto rs = MakeRules("CFD c: A='1' -> B='x'\n", schema_, master_);
  Relation d(schema_);
  AddRow(&d, {"1", "wrong", "c"}, {0.0, 0.0, 0.0});
  HRepairStats stats = TestHRepair(&d, dm_, rs, {});
  EXPECT_EQ(d.tuple(0).value(1), Value("x"));
  EXPECT_EQ(d.tuple(0).mark(1), FixMark::kPossible);
  EXPECT_EQ(stats.nulls_introduced, 0);
  EXPECT_EQ(rules::CountViolations(d, dm_, rs), 0u);
}

TEST_F(HRepairUnit, HighConfidenceRhsPrefersBreakingTheLhs) {
  // The RHS carries confidence 1.0 (expensive to change); the LHS cell is
  // free to null: the cheapest resolution breaks the pattern match.
  auto rs = MakeRules("CFD c: A='1' -> B='x'\n", schema_, master_);
  Relation d(schema_);
  AddRow(&d, {"1", "keep-me", "c"}, {0.0, 1.0, 0.0});
  HRepairStats stats = TestHRepair(&d, dm_, rs, {});
  EXPECT_EQ(d.tuple(0).value(1), Value("keep-me"));
  EXPECT_TRUE(d.tuple(0).value(0).is_null());
  EXPECT_EQ(stats.nulls_introduced, 1);
  EXPECT_EQ(rules::CountViolations(d, dm_, rs), 0u);
}

TEST_F(HRepairUnit, VariableCfdMajorityWinsOnCostTies) {
  auto rs = MakeRules("CFD fd: A -> B\n", schema_, master_);
  Relation d(schema_);
  AddRow(&d, {"g", "common", "c"}, {0.0, 0.0, 0.0});
  AddRow(&d, {"g", "common", "c"}, {0.0, 0.0, 0.0});
  AddRow(&d, {"g", "rare", "c"}, {0.0, 0.0, 0.0});
  TestHRepair(&d, dm_, rs, {});
  EXPECT_EQ(d.tuple(2).value(1), Value("common"));
  EXPECT_EQ(d.tuple(0).value(1), Value("common"));
  EXPECT_EQ(rules::CountViolations(d, dm_, rs), 0u);
}

TEST_F(HRepairUnit, CostBeatsMajorityWhenConfidencesDiffer) {
  // Two cheap 'common' cells vs one expensive 'rare' cell: changing the
  // expensive one costs 1.0, changing both cheap ones costs 0 — cost wins
  // over majority.
  auto rs = MakeRules("CFD fd: A -> B\n", schema_, master_);
  Relation d(schema_);
  AddRow(&d, {"g", "common", "c"}, {0.0, 0.0, 0.0});
  AddRow(&d, {"g", "common", "c"}, {0.0, 0.0, 0.0});
  AddRow(&d, {"g", "rare", "c"}, {0.0, 1.0, 0.0});
  TestHRepair(&d, dm_, rs, {});
  EXPECT_EQ(d.tuple(0).value(1), Value("rare"));
  EXPECT_EQ(d.tuple(1).value(1), Value("rare"));
  EXPECT_EQ(d.tuple(2).value(1), Value("rare"));
}

TEST_F(HRepairUnit, NullEnrichmentFromGroupConsensus) {
  // Example 1.1 step (d): an original null joins the group's agreed value.
  auto rs = MakeRules("CFD fd: A -> B\n", schema_, master_);
  Relation d(schema_);
  AddRow(&d, {"g", "value", "c"}, {0.0, 0.0, 0.0});
  data::Tuple t(3);
  t.set_value(0, Value("g"));
  t.set_value(1, Value::Null());
  t.set_value(2, Value("c"));
  d.AddTuple(std::move(t));
  TestHRepair(&d, dm_, rs, {});
  EXPECT_EQ(d.tuple(1).value(1), Value("value"));
  EXPECT_EQ(d.tuple(1).mark(1), FixMark::kPossible);
}

TEST_F(HRepairUnit, IntroducedNullsAreNotEnriched) {
  // A null introduced to break a conflict is final (lattice top): it must
  // not be re-filled by the enrichment step of a later rule pass.
  auto rs = MakeRules(
      "CFD c1: A='1' -> B='x'\nCFD c2: A='1' -> B='y'\nCFD fd: C -> B\n",
      schema_, master_);
  Relation d(schema_);
  // The contradictory constants force B to null; the fd group with t1
  // would otherwise re-fill it.
  AddRow(&d, {"1", "z", "g"}, {0.0, 0.0, 0.0});
  AddRow(&d, {"2", "w", "g"}, {0.0, 0.0, 0.0});
  HRepairStats stats = TestHRepair(&d, dm_, rs, {});
  EXPECT_EQ(stats.anomalies, 0);
  EXPECT_TRUE(d.tuple(0).value(1).is_null());
  EXPECT_EQ(rules::CountViolations(d, dm_, rs), 0u);
}

TEST_F(HRepairUnit, MdAdoptsMasterValue) {
  auto rs = MakeRules("MD m: A=X -> B:=Y\n", schema_, master_);
  dm_.AddRow({"key", "master"}, 1.0);
  Relation d(schema_);
  AddRow(&d, {"key", "junk", "c"}, {0.0, 0.0, 0.0});
  HRepairStats stats = TestHRepair(&d, dm_, rs, {});
  EXPECT_EQ(d.tuple(0).value(1), Value("master"));
  ASSERT_GE(stats.md_matches.size(), 1u);
  EXPECT_EQ(rules::CountViolations(d, dm_, rs), 0u);
}

TEST_F(HRepairUnit, FrozenTargetForcesPremiseBreak) {
  // The deterministic fix on B contradicts the master value; the only legal
  // resolution is breaking the MD premise with a null.
  auto rs = MakeRules("MD m: A=X -> B:=Y\n", schema_, master_);
  dm_.AddRow({"key", "master"}, 1.0);
  Relation d(schema_);
  AddRow(&d, {"key", "det-value", "c"}, {0.0, 0.0, 0.0});
  d.mutable_tuple(0).set_mark(1, FixMark::kDeterministic);
  HRepairStats stats = TestHRepair(&d, dm_, rs, {});
  EXPECT_EQ(stats.anomalies, 0);
  EXPECT_EQ(d.tuple(0).value(1), Value("det-value"));  // preserved
  EXPECT_TRUE(d.tuple(0).value(0).is_null());          // premise broken
  EXPECT_EQ(rules::CountViolations(d, dm_, rs), 0u);
}

TEST_F(HRepairUnit, MergingWithFrozenClassDoesNotFreezeTheOtherCell) {
  // t0[B] is frozen by a deterministic fix; t1[B] equalizes against it but
  // must stay upgradable: a later constant CFD (with frozen LHS) can still
  // null it rather than anomaly out.
  auto rs = MakeRules(
      "CFD fd: A -> B\nCFD k: C='trigger' -> B='other'\n", schema_, master_);
  Relation d(schema_);
  AddRow(&d, {"g", "det-value", "no"}, {0.0, 0.0, 0.0});
  d.mutable_tuple(0).set_mark(1, FixMark::kDeterministic);
  AddRow(&d, {"g", "junk", "trigger"}, {0.0, 0.0, 1.0});
  d.mutable_tuple(1).set_mark(2, FixMark::kDeterministic);
  HRepairStats stats = TestHRepair(&d, dm_, rs, {});
  EXPECT_EQ(stats.anomalies, 0);
  EXPECT_EQ(d.tuple(0).value(1), Value("det-value"));
  EXPECT_EQ(rules::CountViolations(d, dm_, rs), 0u);
}

}  // namespace
}  // namespace core
}  // namespace uniclean
