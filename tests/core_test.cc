#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cost_model.h"
#include "core/crepair.h"
#include "core/erepair.h"
#include "core/hrepair.h"
#include "core/md_matcher.h"
#include "data/relation.h"
#include "data/schema.h"
#include "paper_example.h"
#include "reasoning/dependency_graph.h"
#include "rules/parser.h"
#include "rules/violation.h"
#include "uniclean/engine.h"

namespace uniclean {
namespace core {
namespace {

using data::FixMark;
using data::MakeSchema;
using data::Relation;
using data::SchemaPtr;
using data::Value;
using rules::RuleSet;

RuleSet MakeRules(const std::string& text, SchemaPtr schema,
                  SchemaPtr master) {
  auto rs = rules::ParseRuleSet(text, schema, master);
  UC_CHECK(rs.ok()) << rs.status().ToString();
  return std::move(rs).value();
}

// Test-local shims with a (d, dm, ruleset, options) signature. They build a
// throwaway MatchEnvironment per call so the single-phase tests below stay
// terse. Production code should build one environment and reuse it — see
// core/match_environment.h.
CRepairStats TestCRepair(Relation* d, const Relation& dm, const RuleSet& ruleset,
                     const CRepairOptions& options = {},
                     const MdMatcherOptions& matcher = {}) {
  MatchEnvironment env(ruleset, dm, matcher);
  return core::CRepair(d, env, options);
}

ERepairStats TestERepair(Relation* d, const Relation& dm, const RuleSet& ruleset,
                     const ERepairOptions& options = {}) {
  MatchEnvironment env(ruleset, dm);
  return core::ERepair(d, env, options);
}

HRepairStats TestHRepair(Relation* d, const Relation& dm, const RuleSet& ruleset,
                     const HRepairOptions& options = {}) {
  MatchEnvironment env(ruleset, dm);
  return core::HRepair(d, env, options);
}

/// The Fig. 2 pipeline through the run API: a fresh engine with the default
/// thresholds and the selected phases, and one session cleaning `*d` in
/// place.
CleanResult RunPipeline(Relation* d, const Relation& dm, const RuleSet& ruleset,
                        bool erepair = true, bool hrepair = true) {
  auto engine = EngineBuilder()
                    .WithDataSchema(d->schema_ptr())
                    .WithMaster(&dm)
                    .WithRules(&ruleset)
                    .WithDefaultPhases(/*crepair=*/true, erepair, hrepair)
                    .BuildEngine();
  UC_CHECK(engine.ok()) << engine.status().ToString();
  Session session = (*engine)->NewSession();
  auto result = session.Run(d);
  UC_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// MdMatcher
// ---------------------------------------------------------------------------

TEST(MdMatcherTest, EqualityBlockingFindsExactMatches) {
  auto rs = uniclean::testing::PaperRuleSet();
  Relation dm = uniclean::testing::CardMaster();
  auto schema = uniclean::testing::TranSchema();
  const rules::Md& psi = rs.mds()[0];  // has 4 equality clauses + FN~jw
  MdMatcher matcher(psi, dm);
  Relation d = uniclean::testing::TranDirty();
  // Dirty t1 (city=Ldn) matches nothing.
  EXPECT_EQ(matcher.FindFirstMatch(d.tuple(0)), -1);
  // Repaired t1 (city=Edi) matches s1.
  d.mutable_tuple(0).set_value(schema->MustFindAttribute("city"),
                               Value("Edi"));
  EXPECT_EQ(matcher.FindFirstMatch(d.tuple(0)), 0);
  EXPECT_EQ(matcher.Matches(d.tuple(0)), std::vector<data::TupleId>{0});
}

TEST(MdMatcherTest, BlockingAgreesWithBruteForce) {
  // Similarity-only MD: blocking must return the same matches as scanning.
  auto schema = MakeSchema("r", {"name", "val"});
  auto master = MakeSchema("m", {"name", "val"});
  auto rs = MakeRules("MD m1: name ~edit:2 name -> val:=val\n", schema,
                      master);
  Relation dm(master);
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    dm.AddRow({rng.RandomWord(8), "v" + std::to_string(i)});
  }
  MdMatcherOptions with_blocking;
  MdMatcherOptions no_blocking;
  no_blocking.use_blocking = false;
  MdMatcher fast(rs.mds()[0], dm, with_blocking);
  MdMatcher brute(rs.mds()[0], dm, no_blocking);
  Relation d(schema);
  for (int i = 0; i < 50; ++i) {
    // Perturb a master name by one character so matches exist.
    std::string name = dm.tuple(static_cast<int>(rng.Index(200)))
                           .value(0)
                           .str();
    name[rng.Index(name.size())] = 'z';
    d.AddRow({name, "?"});
  }
  for (int t = 0; t < d.size(); ++t) {
    const std::vector<data::TupleId> expected = brute.Matches(d.tuple(t));
    const std::vector<data::TupleId> got = fast.Matches(d.tuple(t));
    EXPECT_EQ(got, expected) << "tuple " << t;
  }
}

TEST(MdMatcherTest, NullPremiseNeverMatches) {
  auto rs = uniclean::testing::PaperRuleSet();
  Relation dm = uniclean::testing::CardMaster();
  MdMatcher matcher(rs.mds()[0], dm);
  Relation d = uniclean::testing::TranDirty();
  // t4 has null St (a premise attribute).
  EXPECT_EQ(matcher.FindFirstMatch(d.tuple(3)), -1);
}

TEST(MdMatcherTest, MemosHoldMatchListsAndBlockingListsOnly) {
  // Two similarity clauses, `name` the blocking one. Both probes share the
  // name "alphx", which equals no master name but has blocking candidates,
  // so both clauses are scored against master values. The memos keep one
  // match list per premise projection and one blocking list per probed
  // name, and no predicate outcome.
  auto schema = MakeSchema("r", {"name", "city", "val"});
  auto master = MakeSchema("m", {"name", "city", "val"});
  auto rs = MakeRules(
      "MD m1: name ~edit:1 name & city ~edit:1 city -> val:=val\n", schema,
      master);
  Relation dm(master);
  dm.AddRow({"alpha", "paris", "v0"});
  dm.AddRow({"alpine", "rome", "v1"});
  dm.AddRow({"zulu", "oslo", "v2"});
  MdMatcher matcher(rs.mds()[0], dm);
  Relation d(schema);
  d.AddRow({"alphx", "parix", "?"});
  d.AddRow({"alphx", "berlin", "?"});
  EXPECT_EQ(matcher.Matches(d.tuple(0)), std::vector<data::TupleId>{0});
  EXPECT_TRUE(matcher.Matches(d.tuple(1)).empty());
  const MemoStats stats = matcher.memo_stats();
  EXPECT_EQ(stats.entries, 3u);  // two match lists, one blocking list
  EXPECT_EQ(stats.misses, 3u);   // each computed once
  EXPECT_EQ(stats.hits, 1u);     // the second probe's blocking list
}

// ---------------------------------------------------------------------------
// Cost model (§3.1)
// ---------------------------------------------------------------------------

TEST(CostModelTest, CellCostBasics) {
  EXPECT_DOUBLE_EQ(CellCost(Value("x"), 0.7, Value("x")), 0.0);
  EXPECT_DOUBLE_EQ(CellCost(Value("x"), 1.0, Value("y")), 1.0);
  EXPECT_DOUBLE_EQ(CellCost(Value("x"), 0.0, Value("y")), 0.0);
  EXPECT_DOUBLE_EQ(CellCost(Value("x"), 0.5, Value::Null()), 0.5);
  EXPECT_DOUBLE_EQ(CellCost(Value::Null(), 0.5, Value("x")), 0.5);
  EXPECT_DOUBLE_EQ(CellCost(Value::Null(), 0.5, Value::Null()), 0.0);
}

TEST(CostModelTest, HighConfidenceChangesCostMore) {
  double low = CellCost(Value("abcdef"), 0.2, Value("abcxyz"));
  double high = CellCost(Value("abcdef"), 0.9, Value("abcxyz"));
  EXPECT_LT(low, high);
}

TEST(CostModelTest, RepairCostSumsOverCells) {
  Relation a(MakeSchema("r", {"A", "B"}));
  a.AddRow({"xx", "yy"}, 1.0);
  Relation b = a.Clone();
  EXPECT_DOUBLE_EQ(RepairCost(a, b), 0.0);
  b.mutable_tuple(0).set_value(0, Value("xz"));  // 1 edit of 2 chars
  EXPECT_DOUBLE_EQ(RepairCost(a, b), 0.5);
}

// ---------------------------------------------------------------------------
// cRepair (§5) — Example 5.2
// ---------------------------------------------------------------------------

class CRepairPaperTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = uniclean::testing::TranSchema();
  Relation d_ = uniclean::testing::TranDirty();
  Relation dm_ = uniclean::testing::CardMaster();

  data::AttributeId A(const char* name) {
    return schema_->MustFindAttribute(name);
  }
};

TEST_F(CRepairPaperTest, Example52RestrictedRules) {
  // Example 5.2 uses ξ1 = ϕ1, ξ2 = (city, phn -> St), ξ3 = ψ (phn), η = 0.8.
  auto rs = MakeRules(
      "CFD xi1: AC='131' -> city='Edi'\n"
      "CFD xi2: city, phn -> St\n"
      "MD xi3: LN=LN & city=city & St=St & post=zip & FN ~jw:0.6 FN "
      "-> phn:=tel\n",
      schema_, uniclean::testing::CardSchema());
  CRepairOptions opts;
  opts.eta = 0.8;
  CRepairStats stats = TestCRepair(&d_, dm_, rs, opts);

  // Step (3): deterministic fix t1[city] := Edi, confidence upgraded to η.
  EXPECT_EQ(d_.tuple(0).value(A("city")), Value("Edi"));
  EXPECT_EQ(d_.tuple(0).mark(A("city")), FixMark::kDeterministic);
  EXPECT_DOUBLE_EQ(d_.tuple(0).confidence(A("city")), 0.8);
  // Step (4): t1[phn] := s1[tel].
  EXPECT_EQ(d_.tuple(0).value(A("phn")), Value("3256778"));
  EXPECT_EQ(d_.tuple(0).mark(A("phn")), FixMark::kDeterministic);
  // Step (5): t2[St] := t1[St] = 10 Oak St.
  EXPECT_EQ(d_.tuple(1).value(A("St")), Value("10 Oak St"));
  EXPECT_EQ(d_.tuple(1).mark(A("St")), FixMark::kDeterministic);
  EXPECT_EQ(stats.deterministic_fixes, 3);
  // t3 / t4 untouched by this restricted rule set.
  EXPECT_EQ(d_.tuple(2).value(A("city")), Value("Edi"));
  EXPECT_EQ(d_.tuple(3).mark(A("post")), FixMark::kNone);
}

TEST_F(CRepairPaperTest, FullPaperRules) {
  auto rs = uniclean::testing::PaperRuleSet();
  CRepairOptions opts;
  opts.eta = 0.8;
  CRepairStats stats = TestCRepair(&d_, dm_, rs, opts);
  // t1: city and phn fixed; FN stays "M." (asserted at 0.9).
  EXPECT_EQ(d_.tuple(0).value(A("city")), Value("Edi"));
  EXPECT_EQ(d_.tuple(0).value(A("phn")), Value("3256778"));
  EXPECT_EQ(d_.tuple(0).value(A("FN")), Value("M."));
  // t2: St and post fixed from t1 via ϕ3 (premise asserted after t1's fix).
  EXPECT_EQ(d_.tuple(1).value(A("St")), Value("10 Oak St"));
  EXPECT_EQ(d_.tuple(1).value(A("post")), Value("EH8 9LE"));
  // t3: city fixed by ϕ2 (AC=020 asserted); phn NOT fixed (FN confidence
  // 0.6 < η keeps ψ's premise unasserted) — the paper fixes it in phase 3.
  EXPECT_EQ(d_.tuple(2).value(A("city")), Value("Ldn"));
  EXPECT_EQ(d_.tuple(2).mark(A("city")), FixMark::kDeterministic);
  EXPECT_EQ(d_.tuple(2).value(A("phn")), Value("3887834"));
  // t3[FN] = Bob not fixed by ϕ4 either (premise FN has cf 0.6 < η).
  EXPECT_EQ(d_.tuple(2).value(A("FN")), Value("Bob"));
  // t4: no premise asserted (AC cf 0.7 < η), nothing happens.
  EXPECT_EQ(d_.tuple(3).value(A("post")), Value("WC1E 7HX"));
  // ψ's FN action hits t1's asserted FN ("M." vs master "Mark"): conflict.
  EXPECT_GE(stats.conflicts, 1);
  EXPECT_EQ(stats.deterministic_fixes, 5);
}

TEST_F(CRepairPaperTest, NoAssertionsNoFixes) {
  // With η above every confidence, nothing is asserted and nothing changes.
  auto rs = uniclean::testing::PaperRuleSet();
  CRepairOptions opts;
  opts.eta = 1.5;
  Relation before = d_.Clone();
  CRepairStats stats = TestCRepair(&d_, dm_, rs, opts);
  EXPECT_EQ(stats.deterministic_fixes, 0);
  EXPECT_EQ(d_.CellDiffCount(before), 0);
}

TEST_F(CRepairPaperTest, BlockingAndBruteForceAgree) {
  auto rs = uniclean::testing::PaperRuleSet();
  Relation d2 = uniclean::testing::TranDirty();
  MdMatcherOptions brute;
  brute.use_blocking = false;
  TestCRepair(&d_, dm_, rs);
  TestCRepair(&d2, dm_, rs, {}, brute);
  EXPECT_EQ(d_.CellDiffCount(d2), 0);
}

// ---------------------------------------------------------------------------
// eRepair (§6) — Example 6.2
// ---------------------------------------------------------------------------

TEST(GroupEntropyTest, KnownValues) {
  EXPECT_DOUBLE_EQ(GroupEntropy({5}), 0.0);          // k = 1
  EXPECT_DOUBLE_EQ(GroupEntropy({1, 1}), 1.0);       // uniform
  EXPECT_DOUBLE_EQ(GroupEntropy({2, 2, 2}), 1.0);    // uniform, k = 3
  EXPECT_NEAR(GroupEntropy({3, 1}), 0.811278, 1e-5);  // Example 6.2's 0.8
  // More skew -> less entropy.
  EXPECT_LT(GroupEntropy({9, 1}), GroupEntropy({6, 4}));
}

TEST(ERepairTest, Example62) {
  // Fig. 8 relation R(A, B, C, E, F, H) with FD ABC -> E.
  auto schema = MakeSchema("R", {"A", "B", "C", "E", "F", "H"});
  auto master = MakeSchema("m", {"X"});
  auto rs = MakeRules("CFD phi: A, B, C -> E\n", schema, master);
  Relation d(schema);
  d.AddRow({"a1", "b1", "c1", "e1", "f1", "h1"});
  d.AddRow({"a1", "b1", "c1", "e1", "f2", "h2"});
  d.AddRow({"a1", "b1", "c1", "e1", "f3", "h3"});
  d.AddRow({"a1", "b1", "c1", "e2", "f1", "h3"});
  d.AddRow({"a2", "b2", "c2", "e1", "f2", "h4"});
  d.AddRow({"a2", "b2", "c2", "e2", "f1", "h4"});
  d.AddRow({"a2", "b2", "c3", "e3", "f3", "h5"});
  d.AddRow({"a2", "b2", "c4", "e3", "f3", "h6"});
  Relation dm(master);
  ERepairOptions opts;
  opts.delta2 = 0.9;  // group (a1,b1,c1) has H ≈ 0.81 < 0.9 <= H = 1 of (a2,b2,c2)
  ERepairStats stats = TestERepair(&d, dm, rs, opts);
  // Only t4[E] is changed (to e1), marked reliable.
  EXPECT_EQ(d.tuple(3).value(3), Value("e1"));
  EXPECT_EQ(d.tuple(3).mark(3), FixMark::kReliable);
  EXPECT_EQ(stats.reliable_fixes, 1);
  // The (a2,b2,c2) group (entropy 1) is untouched.
  EXPECT_EQ(d.tuple(4).value(3), Value("e1"));
  EXPECT_EQ(d.tuple(5).value(3), Value("e2"));
  EXPECT_GE(stats.groups_skipped_high_entropy, 1);
}

TEST(ERepairTest, RespectsDeterministicFixesAndAssertedCells) {
  auto schema = MakeSchema("R", {"K", "V"});
  auto master = MakeSchema("m", {"X"});
  auto rs = MakeRules("CFD fd: K -> V\n", schema, master);
  Relation d(schema);
  d.AddRow({"k", "good"});
  d.AddRow({"k", "good"});
  d.AddRow({"k", "bad1"});
  d.AddRow({"k", "bad2"});
  // bad1 is a deterministic fix (pretend cRepair wrote it); bad2 asserted.
  d.mutable_tuple(2).set_mark(1, FixMark::kDeterministic);
  d.mutable_tuple(3).set_confidence(1, 0.95);
  Relation dm(master);
  ERepairOptions opts;
  opts.delta2 = 0.95;
  TestERepair(&d, dm, rs, opts);
  EXPECT_EQ(d.tuple(2).value(1), Value("bad1"));  // untouched
  EXPECT_EQ(d.tuple(3).value(1), Value("bad2"));  // untouched
}

TEST(ERepairTest, UpdateThresholdBoundsRewrites) {
  // Two contradictory constant CFDs would flip a cell forever; δ1 stops it.
  auto schema = MakeSchema("R", {"A", "B"});
  auto master = MakeSchema("m", {"X"});
  auto rs = MakeRules("CFD c1: A='1' -> B='x'\nCFD c2: A='1' -> B='y'\n",
                      schema, master);
  Relation d(schema);
  d.AddRow({"1", "z"});
  Relation dm(master);
  ERepairOptions opts;
  opts.delta1 = 4;
  ERepairStats stats = TestERepair(&d, dm, rs, opts);
  EXPECT_EQ(stats.reliable_fixes, 4);  // exactly δ1 rewrites
}

TEST(ERepairTest, StandardizesUnassertedCellsButProtectsAssertedOnes) {
  auto rs = uniclean::testing::PaperRuleSet();
  Relation d = uniclean::testing::TranDirty();
  Relation dm = uniclean::testing::CardMaster();
  auto schema = uniclean::testing::TranSchema();
  // Run after cRepair so premises (e.g. t3's city) are repaired.
  TestCRepair(&d, dm, rs, {});
  ERepairStats stats = TestERepair(&d, dm, rs, {});
  // eRepair standardizes t3[FN] via the constant CFD ϕ4 (cf 0.6 < η).
  EXPECT_EQ(d.tuple(2).value(schema->MustFindAttribute("FN")),
            Value("Robert"));
  EXPECT_EQ(d.tuple(2).mark(schema->MustFindAttribute("FN")),
            FixMark::kReliable);
  EXPECT_GE(stats.reliable_fixes, 1);
  // t3[phn] carries confidence 0.9 >= η, so eRepair leaves it alone even
  // though master s2 disagrees; the paper (Example 7.2) fixes it in the
  // heuristic phase, which HRepairTest.Example72AfterFirstTwoPhases checks.
  EXPECT_EQ(d.tuple(2).value(schema->MustFindAttribute("phn")),
            Value("3887834"));
}

TEST(ERepairTest, MdResolveFixesUnassertedCellsFromMaster) {
  // Lower t3's phn confidence below η: now eRepair's MDResolve corrects it
  // from master data directly.
  auto rs = uniclean::testing::PaperRuleSet();
  Relation d = uniclean::testing::TranDirty();
  Relation dm = uniclean::testing::CardMaster();
  auto schema = uniclean::testing::TranSchema();
  d.mutable_tuple(2).set_confidence(schema->MustFindAttribute("phn"), 0.5);
  TestCRepair(&d, dm, rs, {});
  TestERepair(&d, dm, rs, {});
  EXPECT_EQ(d.tuple(2).value(schema->MustFindAttribute("phn")),
            Value("3887644"));
  EXPECT_EQ(d.tuple(2).mark(schema->MustFindAttribute("phn")),
            FixMark::kReliable);
}

TEST(ERepairTest, GroupResolvesOnceAnotherRulesFixLowersItsEntropy) {
  // Group K='k' holds V = a, a, a, b, c: entropy 0.865 >= δ2 = 0.8, so
  // pass 1 leaves it alone. The constant CFD, which the §6.2 order applies
  // after fd, then rewrites t4[V] from c to a, and in pass 2 the group
  // (a x4, b) has entropy 0.722 and resolves.
  auto schema = MakeSchema("R", {"K", "V", "W"});
  auto master = MakeSchema("m", {"X"});
  auto rs = MakeRules("CFD fix: W='z' -> V='a'\nCFD fd: K -> V\n", schema,
                      master);
  Relation d(schema);
  d.AddRow({"k", "a", "n"});
  d.AddRow({"k", "a", "n"});
  d.AddRow({"k", "a", "n"});
  d.AddRow({"k", "b", "n"});
  d.AddRow({"k", "c", "z"});
  Relation dm(master);
  ERepairStats stats = TestERepair(&d, dm, rs, {});
  EXPECT_EQ(d.tuple(3).value(1), Value("a"));
  EXPECT_EQ(d.tuple(4).value(1), Value("a"));
  EXPECT_EQ(stats.reliable_fixes, 2);
  EXPECT_EQ(stats.groups_skipped_high_entropy, 1);
  EXPECT_EQ(stats.groups_resolved, 1);
  EXPECT_EQ(stats.passes, 3);
}

TEST(ERepairTest, ConstantCfdResolvesATupleALaterRuleMadeViolate) {
  // c and k feed each other, so the §6.2 order keeps them in one component
  // and applies c, the lower id, first. In pass 1 c fixes t1 but passes t0
  // by (A is '0'); k then writes t0[A] = '1'. In pass 2 c must examine t0
  // again, since it was fixed after c's previous scan began.
  auto schema = MakeSchema("R", {"A", "B"});
  auto master = MakeSchema("m", {"X"});
  auto rs = MakeRules("CFD c: A='1' -> B='x'\nCFD k: B='y' -> A='1'\n",
                      schema, master);
  const std::vector<rules::RuleId> order =
      reasoning::DependencyGraph(rs).ApplicationOrder();
  ASSERT_EQ(order.size(), 2u);
  ASSERT_EQ(rs.rule_name(order[0]), "c");
  Relation d(schema);
  d.AddRow({"0", "y"});
  d.AddRow({"1", "y"});
  Relation dm(master);
  ERepairStats stats = TestERepair(&d, dm, rs, {});
  EXPECT_EQ(d.tuple(0).value(0), Value("1"));
  EXPECT_EQ(d.tuple(0).value(1), Value("x"));
  EXPECT_EQ(d.tuple(1).value(1), Value("x"));
  EXPECT_EQ(stats.reliable_fixes, 3);
  EXPECT_EQ(stats.passes, 3);
}

// ---------------------------------------------------------------------------
// hRepair (§7) — Example 7.2 and repair guarantees
// ---------------------------------------------------------------------------

TEST(HRepairTest, ProducesConsistentRepairOnPaperData) {
  auto rs = uniclean::testing::PaperRuleSet();
  Relation d = uniclean::testing::TranDirty();
  Relation dm = uniclean::testing::CardMaster();
  HRepairStats stats = TestHRepair(&d, dm, rs, {});
  EXPECT_EQ(stats.anomalies, 0);
  EXPECT_EQ(rules::CountViolations(d, dm, rs), 0u);
}

TEST(HRepairTest, Example72AfterFirstTwoPhases) {
  auto rs = uniclean::testing::PaperRuleSet();
  auto schema = uniclean::testing::TranSchema();
  Relation d = uniclean::testing::TranDirty();
  Relation dm = uniclean::testing::CardMaster();
  TestCRepair(&d, dm, rs, {});
  TestERepair(&d, dm, rs, {});
  HRepairStats stats = TestHRepair(&d, dm, rs, {});
  EXPECT_EQ(stats.anomalies, 0);
  EXPECT_EQ(rules::CountViolations(d, dm, rs), 0u);
  // Example 7.2 outcomes: t3[FN] = Robert, t3[phn] = master tel, and
  // t4[St, post] taken from t3.
  EXPECT_EQ(d.tuple(2).value(schema->MustFindAttribute("FN")),
            Value("Robert"));
  EXPECT_EQ(d.tuple(2).value(schema->MustFindAttribute("phn")),
            Value("3887644"));
  EXPECT_EQ(d.tuple(3).value(schema->MustFindAttribute("St")),
            Value("5 Wren St"));
  EXPECT_EQ(d.tuple(3).value(schema->MustFindAttribute("post")),
            Value("WC1H 9SE"));
}

TEST(HRepairTest, PreservesDeterministicFixes) {
  auto rs = uniclean::testing::PaperRuleSet();
  Relation d = uniclean::testing::TranDirty();
  Relation dm = uniclean::testing::CardMaster();
  TestCRepair(&d, dm, rs, {});
  // Record the deterministic cells.
  std::vector<std::pair<int, int>> det_cells;
  std::vector<Value> det_values;
  for (int t = 0; t < d.size(); ++t) {
    for (int a = 0; a < d.schema().arity(); ++a) {
      if (d.tuple(t).mark(a) == FixMark::kDeterministic) {
        det_cells.emplace_back(t, a);
        det_values.push_back(d.tuple(t).value(a));
      }
    }
  }
  ASSERT_FALSE(det_cells.empty());
  TestHRepair(&d, dm, rs, {});
  for (size_t i = 0; i < det_cells.size(); ++i) {
    auto [t, a] = det_cells[i];
    EXPECT_EQ(d.tuple(t).value(a), det_values[i]) << "cell " << t << "," << a;
    EXPECT_EQ(d.tuple(t).mark(a), FixMark::kDeterministic);
  }
}

TEST(HRepairTest, RandomizedRepairsAlwaysConsistent) {
  // Property: for randomly dirtied paper data, the three-phase pipeline
  // ends with zero violations and zero anomalies.
  auto rs = uniclean::testing::PaperRuleSet();
  auto schema = uniclean::testing::TranSchema();
  Relation dm = uniclean::testing::CardMaster();
  Rng rng(99);
  for (int round = 0; round < 15; ++round) {
    Relation d = uniclean::testing::TranDirty();
    // Random perturbations of rule-relevant attributes.
    for (int k = 0; k < 6; ++k) {
      int t = static_cast<int>(rng.Index(static_cast<size_t>(d.size())));
      const auto& attrs = rs.RuleAttributes();
      data::AttributeId a = attrs[rng.Index(attrs.size())];
      d.mutable_tuple(t).set_value(a, Value(rng.RandomWord(4)));
      d.mutable_tuple(t).set_confidence(a, rng.NextDouble() * 0.5);
    }
    CleanResult result = RunPipeline(&d, dm, rs);
    EXPECT_EQ(result.phase("hRepair")->counter("anomalies"), 0)
        << "round " << round;
    EXPECT_EQ(rules::CountViolations(d, dm, rs), 0u) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// UniClean end-to-end (Fig. 2 / Example 1.1)
// ---------------------------------------------------------------------------

TEST(UniCleanTest, FraudDetectionNarrative) {
  auto rs = uniclean::testing::PaperRuleSet();
  auto schema = uniclean::testing::TranSchema();
  Relation d = uniclean::testing::TranDirty();
  Relation dm = uniclean::testing::CardMaster();
  CleanResult result = RunPipeline(&d, dm, rs);
  EXPECT_GT(result.phase("cRepair")->fixes, 0);
  EXPECT_GT(result.phase("eRepair")->fixes + result.phase("hRepair")->fixes,
            0);
  // Example 1.1: after cleaning, t3 and t4 agree on every personal
  // attribute — the same card was used in the UK and the US: fraud.
  for (const char* attr : {"FN", "LN", "St", "city", "AC", "post", "phn"}) {
    data::AttributeId a = schema->MustFindAttribute(attr);
    EXPECT_TRUE(Value::SqlEquals(d.tuple(2).value(a), d.tuple(3).value(a)))
        << attr;
    EXPECT_FALSE(d.tuple(2).value(a).is_null()) << attr;
  }
  EXPECT_EQ(d.tuple(2).value(schema->MustFindAttribute("where")),
            Value("UK"));
  EXPECT_EQ(d.tuple(3).value(schema->MustFindAttribute("where")),
            Value("USA"));
  // The final repair is consistent.
  EXPECT_EQ(rules::CountViolations(d, dm, rs), 0u);
}

TEST(UniCleanTest, PhaseTogglesMatchIndividualRuns) {
  auto rs = uniclean::testing::PaperRuleSet();
  Relation dm = uniclean::testing::CardMaster();
  Relation a = uniclean::testing::TranDirty();
  Relation b = uniclean::testing::TranDirty();
  RunPipeline(&a, dm, rs, /*erepair=*/false, /*hrepair=*/false);
  TestCRepair(&b, dm, rs, {});
  EXPECT_EQ(a.CellDiffCount(b), 0);
}

TEST(UniCleanTest, MarksIdentifyPhases) {
  auto rs = uniclean::testing::PaperRuleSet();
  auto schema = uniclean::testing::TranSchema();
  Relation d = uniclean::testing::TranDirty();
  Relation dm = uniclean::testing::CardMaster();
  RunPipeline(&d, dm, rs);
  // t1[city] was a deterministic fix, t3[FN] a reliable fix (ϕ4 applied by
  // eRepair), and t4[St] a possible fix (null enrichment in hRepair).
  EXPECT_EQ(d.tuple(0).mark(schema->MustFindAttribute("city")),
            FixMark::kDeterministic);
  EXPECT_EQ(d.tuple(2).mark(schema->MustFindAttribute("FN")),
            FixMark::kReliable);
  EXPECT_EQ(d.tuple(3).mark(schema->MustFindAttribute("St")),
            FixMark::kPossible);
}

}  // namespace
}  // namespace core
}  // namespace uniclean
