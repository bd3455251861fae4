// Focused unit tests for hRepair's resolution choices (§7): cost-driven
// fix-vs-break decisions, null introduction, majority tie-breaking, null
// enrichment, and frozen-class interactions.

#include <string>
#include <vector>

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

// The next three cases need several passes. They pin what hRepair's
// violation groups must keep between passes: a group that stayed clean
// still counts its anomalies, a group whose members moved is refiled, and a
// group dirtied in the middle of a rule's call is still resolved in that
// call.

TEST(HRepairPasses, FrozenConflictCountsAnAnomalyOnEveryPass) {
  // t0 and t1 agree on A but carry different deterministic B values, and
  // their A cells are frozen too: no merge and no premise break is legal.
  // The constant CFDs form a chain listed against hRepair's rule order, so
  // each pass enables exactly one more fix and the run takes 4 passes.
  SchemaPtr schema = MakeSchema("r", {"A", "B", "C", "D", "E", "F"});
  SchemaPtr master = MakeSchema("m", {"X"});
  auto rs = MakeRules(
      "CFD fd: A -> B\nCFD k1: E='3' -> F='4'\nCFD k2: D='2' -> E='3'\n"
      "CFD k3: C='1' -> D='2'\n",
      schema, master);
  Relation d(schema);
  AddRow(&d, {"g", "x", "0", "0", "0", "0"}, {0, 0, 0, 0, 0, 0});
  AddRow(&d, {"g", "y", "0", "0", "0", "0"}, {0, 0, 0, 0, 0, 0});
  AddRow(&d, {"h", "z", "1", "0", "0", "0"}, {0, 0, 1, 0, 0, 0});
  for (data::TupleId t : {0, 1}) {
    d.mutable_tuple(t).set_mark(0, FixMark::kDeterministic);
    d.mutable_tuple(t).set_mark(1, FixMark::kDeterministic);
  }
  Relation dm(master);
  HRepairStats stats = TestHRepair(&d, dm, rs, {});
  EXPECT_EQ(stats.passes, 4);
  EXPECT_EQ(stats.anomalies, 4);  // once per pass
  EXPECT_EQ(d.tuple(0).value(1), Value("x"));
  EXPECT_EQ(d.tuple(1).value(1), Value("y"));
  EXPECT_EQ(d.tuple(2).value(5), Value("4"));
}

TEST(HRepairPasses, FrozenConstantCfdConflictCountsAnAnomalyOnEveryPass) {
  // t0 violates c, and both its cells in c are deterministic fixes: the
  // RHS cannot take the constant and the LHS cannot be nulled. Nothing
  // touches t0 again, so later scans of c skip it and must count its
  // anomaly once per pass all the same. The chain k3 -> k2 -> k1 on t1,
  // listed against hRepair's rule order, keeps the run going for 4 passes.
  SchemaPtr schema = MakeSchema("r", {"A", "B", "C", "D", "E", "F"});
  SchemaPtr master = MakeSchema("m", {"X"});
  auto rs = MakeRules(
      "CFD c: A='1' -> B='x'\nCFD k1: E='3' -> F='4'\n"
      "CFD k2: D='2' -> E='3'\nCFD k3: C='1' -> D='2'\n",
      schema, master);
  Relation d(schema);
  AddRow(&d, {"1", "y", "0", "0", "0", "0"}, {0, 0, 0, 0, 0, 0});
  AddRow(&d, {"0", "z", "1", "0", "0", "0"}, {0, 0, 1, 0, 0, 0});
  d.mutable_tuple(0).set_mark(0, FixMark::kDeterministic);
  d.mutable_tuple(0).set_mark(1, FixMark::kDeterministic);
  Relation dm(master);
  HRepairStats stats = TestHRepair(&d, dm, rs, {});
  EXPECT_EQ(stats.passes, 4);
  EXPECT_EQ(stats.anomalies, 4);  // once per pass
  EXPECT_EQ(d.tuple(0).value(0), Value("1"));
  EXPECT_EQ(d.tuple(0).value(1), Value("y"));
  EXPECT_EQ(d.tuple(1).value(5), Value("4"));
}

TEST(HRepairPasses, NullIsEnrichedOnceItsGroupConvergesInALaterPass) {
  // Pass 1 breaks the t0/t1 conflict by nulling t1[A] (free) rather than
  // merging the expensive B cells. Enrichment in that call still sees t1's
  // B disagree, so t2[B] stays null. Pass 2 refiles t1 out of the group,
  // which then agrees, and t2[B] takes its value.
  SchemaPtr schema = MakeSchema("r", {"A", "B", "C"});
  SchemaPtr master = MakeSchema("m", {"X"});
  auto rs = MakeRules("CFD fd: A -> B\n", schema, master);
  Relation d(schema);
  AddRow(&d, {"g", "x", "c"}, {1.0, 1.0, 0.0});
  AddRow(&d, {"g", "y", "c"}, {0.0, 1.0, 0.0});
  data::Tuple t(3);
  t.set_value(0, Value("g"));
  t.set_value(1, Value::Null());
  t.set_value(2, Value("c"));
  d.AddTuple(std::move(t));
  Relation dm(master);
  HRepairStats stats = TestHRepair(&d, dm, rs, {});
  EXPECT_EQ(stats.passes, 3);
  EXPECT_EQ(stats.nulls_introduced, 1);
  EXPECT_TRUE(d.tuple(1).value(0).is_null());
  EXPECT_EQ(d.tuple(2).value(1), Value("x"));
}

TEST(HRepairPasses, MergeRewritesAMemberOfALaterGroupInTheSameCall) {
  // Pass 1: rule s merges t0[B] and t3[B] (same C) and rule t writes 'w'
  // into t1[B] and t2[B]. Pass 2: rule r finds group A='a1' outvoted by 'w'
  // and merges t0's class, which rewrites t3[B] in group A='a2'. That group
  // was clean when the call began; the same call must still resolve it, or
  // the run needs a fourth pass.
  SchemaPtr schema = MakeSchema("r", {"A", "B", "C", "D"});
  SchemaPtr master = MakeSchema("m", {"X"});
  auto rs = MakeRules(
      "CFD s: C -> B\nCFD r: A -> B\nCFD t: D='trig' -> B='w'\n", schema,
      master);
  Relation d(schema);
  const std::vector<double> cf = {1.0, 0.0, 1.0, 1.0};
  AddRow(&d, {"a1", "p", "c1", "n"}, cf);
  AddRow(&d, {"a1", "p", "c2", "trig"}, cf);
  AddRow(&d, {"a1", "p", "c3", "trig"}, cf);
  AddRow(&d, {"a2", "q", "c1", "n"}, cf);
  AddRow(&d, {"a2", "p", "c4", "n"}, cf);
  Relation dm(master);
  HRepairStats stats = TestHRepair(&d, dm, rs, {});
  EXPECT_EQ(stats.passes, 3);
  EXPECT_EQ(stats.merges, 3);
  for (data::TupleId t = 0; t < d.size(); ++t) {
    EXPECT_EQ(d.tuple(t).value(1), Value("w")) << "tuple " << t;
  }
}

TEST(HRepairPasses, AnMdReprobesATupleWhosePremiseAnotherMdRewrote) {
  // m2 (rule 0) probes t0 in pass 1 while its B is still 'junk' and finds
  // no match; m1 then writes the master's B. In pass 2 m2 must probe t0
  // again with the new B, match the master and write C.
  SchemaPtr schema = MakeSchema("r", {"A", "B", "C"});
  SchemaPtr master = MakeSchema("m", {"X", "Y", "Z"});
  auto rs = MakeRules("MD m2: B=Y -> C:=Z\nMD m1: A=X -> B:=Y\n", schema,
                      master);
  Relation dm(master);
  dm.AddRow({"k", "good", "zz"}, 1.0);
  Relation d(schema);
  AddRow(&d, {"k", "junk", "c"}, {0.0, 0.0, 0.0});
  HRepairStats stats = TestHRepair(&d, dm, rs, {});
  EXPECT_EQ(d.tuple(0).value(1), Value("good"));
  EXPECT_EQ(d.tuple(0).value(2), Value("zz"));
  EXPECT_EQ(stats.anomalies, 0);
  EXPECT_EQ(rules::CountViolations(d, dm, rs), 0u);
}

}  // namespace
}  // namespace core
}  // namespace uniclean
