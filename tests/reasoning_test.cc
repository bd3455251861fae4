#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/relation.h"
#include "data/schema.h"
#include "paper_example.h"
#include "reasoning/chase.h"
#include "reasoning/consistency.h"
#include "reasoning/dependency_graph.h"
#include "rules/parser.h"
#include "rules/ruleset.h"
#include "rules/violation.h"

namespace uniclean {
namespace reasoning {
namespace {

using data::MakeSchema;
using data::Relation;
using data::SchemaPtr;
using rules::ParseRuleSet;
using rules::RuleId;
using rules::RuleSet;

RuleSet MakeRules(const std::string& text, SchemaPtr schema,
                  SchemaPtr master) {
  auto rs = ParseRuleSet(text, schema, master);
  UC_CHECK(rs.ok()) << rs.status().ToString();
  return std::move(rs).value();
}

// ---------------------------------------------------------------------------
// Dependency graph
// ---------------------------------------------------------------------------

TEST(DependencyGraphTest, EdgesFollowRhsIntoLhs) {
  auto schema = MakeSchema("r", {"A", "B", "C"});
  auto rs = MakeRules("CFD r1: A -> B\nCFD r2: B -> C\n", schema, schema);
  DependencyGraph g(rs);
  EXPECT_TRUE(g.HasEdge(0, 1));   // r1 writes B, r2 reads B
  EXPECT_FALSE(g.HasEdge(1, 0));  // r2 writes C, r1 reads A
  EXPECT_EQ(g.OutDegree(0), 1);
  EXPECT_EQ(g.InDegree(1), 1);
}

TEST(DependencyGraphTest, SelfLoopWhenRuleFeedsItself) {
  auto schema = MakeSchema("r", {"FN"});
  auto rs = MakeRules("CFD std: FN='Bob' -> FN='Robert'\n", schema, schema);
  DependencyGraph g(rs);
  EXPECT_TRUE(g.HasEdge(0, 0));
}

TEST(DependencyGraphTest, SccsTopologicalOrder) {
  auto schema = MakeSchema("r", {"A", "B", "C", "D"});
  // Cycle {r1, r2}; r3 downstream of the cycle.
  auto rs = MakeRules("CFD r1: A -> B\nCFD r2: B -> A\nCFD r3: B -> C\n",
                      schema, schema);
  DependencyGraph g(rs);
  auto sccs = g.SccsInTopologicalOrder();
  ASSERT_EQ(sccs.size(), 2u);
  EXPECT_EQ(sccs[0], (std::vector<RuleId>{0, 1}));
  EXPECT_EQ(sccs[1], (std::vector<RuleId>{2}));
}

TEST(DependencyGraphTest, ApplicationOrderRespectsTopology) {
  auto rs = uniclean::testing::PaperRuleSet();
  DependencyGraph g(rs);
  auto order = g.ApplicationOrder();
  ASSERT_EQ(order.size(), static_cast<size_t>(rs.num_rules()));
  // Every rule appears exactly once.
  std::vector<RuleId> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (RuleId r = 0; r < rs.num_rules(); ++r) {
    EXPECT_EQ(sorted[static_cast<size_t>(r)], r);
  }
  // Cross-SCC edges go forward in the order.
  auto sccs = g.SccsInTopologicalOrder();
  std::vector<int> scc_of(static_cast<size_t>(rs.num_rules()));
  for (size_t i = 0; i < sccs.size(); ++i) {
    for (RuleId r : sccs[i]) scc_of[static_cast<size_t>(r)] = static_cast<int>(i);
  }
  std::vector<int> pos(static_cast<size_t>(rs.num_rules()));
  for (size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<size_t>(order[i])] = static_cast<int>(i);
  }
  for (RuleId u = 0; u < rs.num_rules(); ++u) {
    for (RuleId v : g.Successors(u)) {
      if (scc_of[static_cast<size_t>(u)] != scc_of[static_cast<size_t>(v)]) {
        EXPECT_LT(pos[static_cast<size_t>(u)], pos[static_cast<size_t>(v)])
            << "edge " << u << "->" << v;
      }
    }
  }
}

TEST(DependencyGraphTest, WithinSccSortedByDegreeRatio) {
  // Example 6.1's flavor: inside one SCC, higher out/in ratio first.
  auto schema = MakeSchema("r", {"A", "B", "C"});
  // r0: A->B, r1: B->C, r2: C->A forms a 3-cycle; all ratios 1/1, so order
  // falls back to rule id.
  auto rs = MakeRules("CFD r0: A -> B\nCFD r1: B -> C\nCFD r2: C -> A\n",
                      schema, schema);
  DependencyGraph g(rs);
  auto order = g.ApplicationOrder();
  EXPECT_EQ(order, (std::vector<RuleId>{0, 1, 2}));
}

TEST(DependencyGraphTest, MdFeedsTheCfdsThatReadItsRhs) {
  // CFDs take the low rule ids, MDs follow: r1 is 0 and m1 is 1.
  auto schema = MakeSchema("r", {"A", "B", "C"});
  auto master = MakeSchema("m", {"X", "Y"});
  auto rs = MakeRules("CFD r1: B -> C\nMD m1: A=X -> B:=Y\n", schema, master);
  DependencyGraph g(rs);
  ASSERT_EQ(g.num_nodes(), 2);
  EXPECT_TRUE(g.HasEdge(1, 0));   // m1 writes B, r1 reads B
  EXPECT_FALSE(g.HasEdge(0, 1));  // r1 writes C, m1 reads A
  EXPECT_EQ(g.ApplicationOrder(), (std::vector<RuleId>{1, 0}));
}

// ---------------------------------------------------------------------------
// Consistency (Thm 4.1)
// ---------------------------------------------------------------------------

TEST(ConsistencyTest, PaperRulesAreConsistent) {
  auto rs = uniclean::testing::PaperRuleSet();
  Relation dm = uniclean::testing::CardMaster();
  auto result = IsConsistent(rs, dm);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value());
}

TEST(ConsistencyTest, ContradictoryConstantCfdsAreInconsistent) {
  auto schema = MakeSchema("r", {"A", "B"});
  Relation dm(MakeSchema("m", {"X"}));
  // Every tuple must have B=b1 and B=b2: no nonempty instance exists.
  auto rs = MakeRules("CFD c1: A -> B='b1'\nCFD c2: A -> B='b2'\n", schema,
                      schema);
  auto result = IsConsistent(rs, dm);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value());
}

TEST(ConsistencyTest, ConditionalContradictionIsStillConsistent) {
  // B must be b1 when A=1 and b2 when A=2 — satisfiable by avoiding A=1/2.
  auto schema = MakeSchema("r", {"A", "B"});
  Relation dm(MakeSchema("m", {"X"}));
  auto rs = MakeRules("CFD c1: A='1' -> B='b1'\nCFD c2: A='2' -> B='b2'\n",
                      schema, schema);
  auto result = IsConsistent(rs, dm);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value());
}

TEST(ConsistencyTest, MdsAloneAlwaysConsistent) {
  // [Fan et al. 2011]: any set of MDs alone is consistent (pick values far
  // from all master values).
  auto schema = MakeSchema("r", {"A", "E"});
  auto master = MakeSchema("m", {"B", "F"});
  Relation dm(master);
  dm.AddRow({"x", "f1"});
  dm.AddRow({"y", "f2"});
  auto rs = MakeRules("MD m1: A=B -> E:=F\nMD m2: A ~edit:1 B -> E:=F\n",
                      schema, master);
  auto result = IsConsistent(rs, dm);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value());
}

TEST(ConsistencyTest, CfdMdInterplayCanBeInconsistent) {
  // Σ forces A='x' and E='e'; the MD (with premise A = B) forces E to the
  // master's F='f' for the master tuple B='x'. Contradiction.
  auto schema = MakeSchema("r", {"A", "E"});
  auto master = MakeSchema("m", {"B", "F"});
  Relation dm(master);
  dm.AddRow({"x", "f"});
  auto rs = MakeRules(
      "CFD c1: -> A='x'\nCFD c2: -> E='e'\nMD m1: A=B -> E:=F\n", schema,
      master);
  auto result = IsConsistent(rs, dm);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value());
}

TEST(ConsistencyTest, EmptyRuleSetConsistent) {
  auto schema = MakeSchema("r", {"A"});
  Relation dm(MakeSchema("m", {"X"}));
  auto rs = rules::RuleSet::Make(schema, MakeSchema("m", {"X"}), {}, {});
  ASSERT_TRUE(rs.ok());
  auto result = IsConsistent(rs.value(), dm);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value());
}

TEST(ConsistencyTest, ChainedConstantCfdsCanBeInconsistent) {
  // c1 forces A='1' on every tuple, so c2 forces B='x', which c3 forbids.
  auto schema = MakeSchema("r", {"A", "B"});
  Relation dm(MakeSchema("m", {"X"}));
  auto rs = MakeRules(
      "CFD c1: -> A='1'\nCFD c2: A='1' -> B='x'\nCFD c3: -> B='y'\n",
      schema, schema);
  auto result = IsConsistent(rs, dm);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value());
  // Without c1 a tuple avoiding A='1' satisfies the other two.
  auto open = MakeRules("CFD c2: A='1' -> B='x'\nCFD c3: -> B='y'\n", schema,
                        schema);
  auto result2 = IsConsistent(open, dm);
  ASSERT_TRUE(result2.ok()) << result2.status().ToString();
  EXPECT_TRUE(result2.value());
}

TEST(ConsistencyTest, BudgetExhaustionReportsOutOfRange) {
  auto rs = uniclean::testing::PaperRuleSet();
  Relation dm = uniclean::testing::CardMaster();
  AnalysisOptions opts;
  opts.max_search_nodes = 1;
  auto result = IsConsistent(rs, dm, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// Implication (Thm 4.2)
// ---------------------------------------------------------------------------

class ImplicationTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = MakeSchema("r", {"A", "B", "C"});
  SchemaPtr master_ = MakeSchema("m", {"X", "Y"});
  Relation dm_{master_};
};

TEST_F(ImplicationTest, RuleImpliesItself) {
  auto rs = MakeRules("CFD c: A -> B\n", schema_, master_);
  auto result = Implies(rs, dm_, rs.cfds()[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value());
}

TEST_F(ImplicationTest, FdTransitivity) {
  auto rs = MakeRules("CFD c1: A -> B\nCFD c2: B -> C\n", schema_, master_);
  auto target = MakeRules("CFD t: A -> C\n", schema_, master_);
  auto result = Implies(rs, dm_, target.cfds()[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value());
}

TEST_F(ImplicationTest, NoImplicationWithoutSupport) {
  auto rs = MakeRules("CFD c1: A -> B\n", schema_, master_);
  auto target = MakeRules("CFD t: B -> A\n", schema_, master_);
  auto result = Implies(rs, dm_, target.cfds()[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value());
}

TEST_F(ImplicationTest, ConstantChaining) {
  auto rs = MakeRules("CFD c1: A='1' -> B='2'\nCFD c2: B='2' -> C='3'\n",
                      schema_, master_);
  auto target = MakeRules("CFD t: A='1' -> C='3'\n", schema_, master_);
  auto result = Implies(rs, dm_, target.cfds()[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value());
  auto target2 = MakeRules("CFD t: A='1' -> C='4'\n", schema_, master_);
  auto result2 = Implies(rs, dm_, target2.cfds()[0]);
  ASSERT_TRUE(result2.ok());
  EXPECT_FALSE(result2.value());
  // An unconditional constant CFD implies each conditional restriction.
  auto unconditional = MakeRules("CFD c: -> B='2'\n", schema_, master_);
  auto restricted = MakeRules("CFD t: A='1' -> B='2'\n", schema_, master_);
  auto result3 = Implies(unconditional, dm_, restricted.cfds()[0]);
  ASSERT_TRUE(result3.ok()) << result3.status().ToString();
  EXPECT_TRUE(result3.value());
}

TEST_F(ImplicationTest, WeakerMdIsImplied) {
  dm_.AddRow({"x", "f"});
  auto rs = MakeRules("MD m1: A=X -> B:=Y\n", schema_, master_);
  // Adding a premise clause weakens the MD: implied.
  auto weaker = MakeRules("MD t: A=X & C=Y -> B:=Y\n", schema_, master_);
  auto result = Implies(rs, dm_, weaker.mds()[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value());
  // The reverse direction does not hold.
  auto rs2 = MakeRules("MD m1: A=X & C=Y -> B:=Y\n", schema_, master_);
  auto stronger = MakeRules("MD t: A=X -> B:=Y\n", schema_, master_);
  auto result2 = Implies(rs2, dm_, stronger.mds()[0]);
  ASSERT_TRUE(result2.ok());
  EXPECT_FALSE(result2.value());
}

TEST_F(ImplicationTest, MdImpliedByConstantCfdsBlockingPremise) {
  // Σ forces A='z' for every tuple; master only has X='x', so the MD premise
  // A = X never fires: any MD with that premise is vacuously implied.
  dm_.AddRow({"x", "f"});
  auto rs = MakeRules("CFD c: -> A='z'\n", schema_, master_);
  auto target = MakeRules("MD t: A=X -> B:=Y\n", schema_, master_);
  auto result = Implies(rs, dm_, target.mds()[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value());
}

TEST_F(ImplicationTest, BudgetExhaustionReportsOutOfRange) {
  auto rs = MakeRules("CFD c1: A -> B\nCFD c2: B -> C\n", schema_, master_);
  auto target = MakeRules("CFD t: A -> C\n", schema_, master_);
  AnalysisOptions opts;
  opts.max_search_nodes = 1;
  auto result = Implies(rs, dm_, target.cfds()[0], opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST_F(ImplicationTest, IndependentFdsDoNotImplyEachOther) {
  auto ab = MakeRules("CFD f1: A -> B\n", schema_, master_);
  auto bc = MakeRules("CFD f2: B -> C\n", schema_, master_);
  auto forward = Implies(ab, dm_, bc.cfds()[0]);
  ASSERT_TRUE(forward.ok()) << forward.status().ToString();
  EXPECT_FALSE(forward.value());
  auto backward = Implies(bc, dm_, ab.cfds()[0]);
  ASSERT_TRUE(backward.ok()) << backward.status().ToString();
  EXPECT_FALSE(backward.value());
}

TEST_F(ImplicationTest, FdAugmentation) {
  // A wider LHS only narrows the tuple pairs the FD constrains.
  auto rs = MakeRules("CFD f: A -> B\n", schema_, master_);
  auto target = MakeRules("CFD t: A, C -> B\n", schema_, master_);
  auto result = Implies(rs, dm_, target.cfds()[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value());
}

TEST_F(ImplicationTest, FdDoesNotImplyItsReducedLhs) {
  auto rs = MakeRules("CFD f: A, B -> C\n", schema_, master_);
  auto target = MakeRules("CFD t: A -> C\n", schema_, master_);
  auto result = Implies(rs, dm_, target.cfds()[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value());
}

TEST_F(ImplicationTest, ConstantRhsImpliesEveryFdIntoThatAttribute) {
  // Every tuple has B='2', so any two tuples agree on B.
  auto rs = MakeRules("CFD c: -> B='2'\n", schema_, master_);
  auto target = MakeRules("CFD t: C -> B\n", schema_, master_);
  auto result = Implies(rs, dm_, target.cfds()[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value());
}

TEST_F(ImplicationTest, ConstantCfdDoesNotImplyAConflictingConstant) {
  // The tuple (A='1', B='2') satisfies c and violates t.
  auto rs = MakeRules("CFD c: -> B='2'\n", schema_, master_);
  auto target = MakeRules("CFD t: A='1' -> B='3'\n", schema_, master_);
  auto result = Implies(rs, dm_, target.cfds()[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value());
}

TEST_F(ImplicationTest, InconsistentRulesImplyEveryRule) {
  // No nonempty instance satisfies Θ, so no counterexample exists.
  dm_.AddRow({"x", "f"});
  auto rs = MakeRules("CFD c1: -> B='1'\nCFD c2: -> B='2'\n", schema_,
                      master_);
  auto cfd = MakeRules("CFD t: A -> C\n", schema_, master_);
  auto cfd_result = Implies(rs, dm_, cfd.cfds()[0]);
  ASSERT_TRUE(cfd_result.ok()) << cfd_result.status().ToString();
  EXPECT_TRUE(cfd_result.value());
  auto md = MakeRules("MD t: A=X -> C:=Y\n", schema_, master_);
  auto md_result = Implies(rs, dm_, md.mds()[0]);
  ASSERT_TRUE(md_result.ok()) << md_result.status().ToString();
  EXPECT_TRUE(md_result.value());
}

TEST_F(ImplicationTest, FdDoesNotImplyAnMdOverTheSameAttributes) {
  // The tuple (A='x', B='g') satisfies f, matches the master tuple
  // (X='x', Y='f') and keeps B != 'f'.
  dm_.AddRow({"x", "f"});
  auto rs = MakeRules("CFD f: A -> B\n", schema_, master_);
  auto target = MakeRules("MD t: A=X -> B:=Y\n", schema_, master_);
  auto result = Implies(rs, dm_, target.mds()[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value());
}

TEST_F(ImplicationTest, MdBudgetExhaustionReportsOutOfRange) {
  dm_.AddRow({"x", "f"});
  auto rs = MakeRules("MD m1: A=X -> B:=Y\n", schema_, master_);
  auto target = MakeRules("MD t: A=X & C=Y -> B:=Y\n", schema_, master_);
  AnalysisOptions opts;
  opts.max_search_nodes = 1;
  auto result = Implies(rs, dm_, target.mds()[0], opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// Chase: bounded termination / determinism (§4.2)
// ---------------------------------------------------------------------------

TEST(ChaseTest, Example46DoesNotTerminate) {
  // ϕ1 = ([AC='131'] -> [city='Edi']), ϕ5 = ([post='EH8 9AB'] -> [city='Ldn'])
  // on tuple t2 oscillate the city value forever.
  auto schema = uniclean::testing::TranSchema();
  auto master = uniclean::testing::CardSchema();
  auto rs = MakeRules(
      "CFD phi1: AC='131' -> city='Edi'\n"
      "CFD phi5: post='EH8 9AB' -> city='Ldn'\n",
      schema, master);
  Relation d(schema);
  d.AddTuple(uniclean::testing::TranDirty().tuple(1));  // t2
  Relation dm = uniclean::testing::CardMaster();
  ChaseOptions opts;
  opts.max_steps = 5000;
  ChaseResult result = RunChase(d, dm, rs, opts);
  EXPECT_FALSE(result.terminated);
  EXPECT_GE(result.steps, opts.max_steps);
}

TEST(ChaseTest, TerminatingFixpointSatisfiesRules) {
  auto rs = uniclean::testing::PaperRuleSet();
  Relation d = uniclean::testing::TranDirty();
  Relation dm = uniclean::testing::CardMaster();
  ChaseResult result = RunChase(d, dm, rs, {});
  ASSERT_TRUE(result.terminated);
  EXPECT_EQ(rules::CountViolations(result.fixpoint, dm, rs), 0u);
}

TEST(ChaseTest, PaperExampleChaseMatchesNarrative) {
  // After the chase with ϕ1-ϕ4 and ψ, t3 and t4 agree on all the personal
  // attributes (Example 1.1's fraud detection).
  auto rs = uniclean::testing::PaperRuleSet();
  auto schema = uniclean::testing::TranSchema();
  Relation d = uniclean::testing::TranDirty();
  Relation dm = uniclean::testing::CardMaster();
  ChaseResult result = RunChase(d, dm, rs, {});
  ASSERT_TRUE(result.terminated);
  const Relation& fixed = result.fixpoint;
  for (const char* attr : {"FN", "LN", "city", "AC", "post", "phn"}) {
    data::AttributeId a = schema->MustFindAttribute(attr);
    EXPECT_EQ(fixed.tuple(2).value(a), fixed.tuple(3).value(a)) << attr;
  }
  EXPECT_EQ(fixed.tuple(2).value(schema->MustFindAttribute("FN")),
            data::Value("Robert"));
  EXPECT_EQ(fixed.tuple(2).value(schema->MustFindAttribute("phn")),
            data::Value("3887644"));
}

TEST(ChaseTest, DeterminismAnalysisOnConfluentRules) {
  // Constant CFDs with disjoint premises are confluent.
  auto schema = MakeSchema("r", {"A", "B", "C"});
  auto rs = MakeRules("CFD c1: A='1' -> B='x'\nCFD c2: A='1' -> C='y'\n",
                      schema, schema);
  Relation d(schema);
  d.AddRow({"1", "?", "?"});
  Relation dm(schema);
  auto report = AnalyzeDeterminism(d, dm, rs, 5);
  EXPECT_TRUE(report.all_terminated);
  EXPECT_TRUE(report.deterministic);
  EXPECT_EQ(report.distinct_fixpoints, 1);
}

TEST(ChaseTest, DeterminismAnalysisDetectsOrderSensitivity) {
  // Variable CFD with two conflicting donors: the surviving value depends on
  // the application order.
  auto schema = MakeSchema("r", {"K", "V"});
  auto rs = MakeRules("CFD fd: K -> V\n", schema, schema);
  Relation d(schema);
  d.AddRow({"k", "v1"});
  d.AddRow({"k", "v2"});
  Relation dm(schema);
  auto report = AnalyzeDeterminism(d, dm, rs, 12);
  EXPECT_TRUE(report.all_terminated);
  EXPECT_FALSE(report.deterministic);
  EXPECT_GT(report.distinct_fixpoints, 1);
}

TEST(ChaseTest, EmptyRuleSetIsAnImmediateFixpoint) {
  auto schema = MakeSchema("r", {"A", "B"});
  auto master = MakeSchema("m", {"X"});
  auto rs = rules::RuleSet::Make(schema, master, {}, {});
  ASSERT_TRUE(rs.ok());
  Relation d(schema);
  d.AddRow({"a", "b"});
  d.AddRow({"a", "c"});
  Relation dm(master);
  ChaseResult result = RunChase(d, dm, rs.value(), {});
  EXPECT_TRUE(result.terminated);
  EXPECT_EQ(result.steps, 0);
  EXPECT_EQ(result.fixpoint.CellDiffCount(d), 0);
}

TEST(ChaseTest, MdCopiesTheMasterValueIntoMatchingTuples) {
  auto schema = MakeSchema("r", {"A", "B"});
  auto master = MakeSchema("m", {"X", "Y"});
  auto rs = MakeRules("MD m: A=X -> B:=Y\n", schema, master);
  Relation d(schema);
  d.AddRow({"x", "?"});  // matches the master tuple
  d.AddRow({"z", "?"});  // matches nothing
  Relation dm(master);
  dm.AddRow({"x", "f"});
  ChaseResult result = RunChase(d, dm, rs, {});
  ASSERT_TRUE(result.terminated);
  EXPECT_EQ(result.steps, 1);
  const data::AttributeId b = schema->MustFindAttribute("B");
  EXPECT_EQ(result.fixpoint.tuple(0).value(b), data::Value("f"));
  EXPECT_EQ(result.fixpoint.tuple(1).value(b), data::Value("?"));
}

TEST(ChaseTest, DeterminismAnalysisReportsNonTermination) {
  // Example 4.6's oscillating pair never reaches a fixpoint in any order,
  // so no run can vouch for determinism.
  auto schema = uniclean::testing::TranSchema();
  auto rs = MakeRules(
      "CFD phi1: AC='131' -> city='Edi'\n"
      "CFD phi5: post='EH8 9AB' -> city='Ldn'\n",
      schema, uniclean::testing::CardSchema());
  Relation d(schema);
  d.AddTuple(uniclean::testing::TranDirty().tuple(1));  // t2
  Relation dm = uniclean::testing::CardMaster();
  ChaseOptions opts;
  opts.max_steps = 1000;
  auto report = AnalyzeDeterminism(d, dm, rs, 3, opts);
  EXPECT_EQ(report.runs, 3);
  EXPECT_FALSE(report.all_terminated);
  EXPECT_FALSE(report.deterministic);
  EXPECT_EQ(report.distinct_fixpoints, 0);
}

}  // namespace
}  // namespace reasoning
}  // namespace uniclean
