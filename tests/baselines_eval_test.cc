#include <gtest/gtest.h>

#include "baselines/quaid.h"
#include "baselines/sortn.h"
#include "eval/metrics.h"
#include "gen/dataset.h"
#include "paper_example.h"
#include "rules/violation.h"
#include "uniclean/engine.h"

namespace uniclean {
namespace {

using data::Relation;
using data::Value;

/// Cleans `*d` in place through the full pipeline on a fresh engine.
void Clean(Relation* d, const Relation& dm, const rules::RuleSet& rules,
           double eta) {
  auto engine = EngineBuilder()
                    .WithDataSchema(d->schema_ptr())
                    .WithMaster(&dm)
                    .WithRules(&rules)
                    .WithEta(eta)
                    .BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Session session = (*engine)->NewSession();
  auto result = session.Run(d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

gen::GeneratorConfig SmallConfig() {
  gen::GeneratorConfig config;
  config.num_tuples = 500;
  config.master_size = 150;
  config.seed = 7;
  return config;
}

TEST(QuaidTest, RepairsCfdViolationsWithoutMds) {
  auto rs = uniclean::testing::PaperRuleSet();
  Relation d = uniclean::testing::TranDirty();
  Relation dm = uniclean::testing::CardMaster();
  baselines::QuaidStats stats = baselines::Quaid(&d, rs);
  EXPECT_GT(stats.fixes, 0);
  // All CFDs hold afterwards...
  for (rules::RuleId r = 0; r < rs.num_rules(); ++r) {
    if (rs.IsCfd(r)) {
      EXPECT_TRUE(rules::FindCfdViolations(d, rs, r).empty())
          << rs.rule_name(r);
    }
  }
}

TEST(QuaidTest, IgnoresMasterDataEntirely) {
  // quaid cannot use ψ: t1's phn stays unrepaired (no CFD constrains it
  // once city is consistent).
  auto rs = uniclean::testing::PaperRuleSet();
  auto schema = uniclean::testing::TranSchema();
  Relation d = uniclean::testing::TranDirty();
  baselines::Quaid(&d, rs);
  EXPECT_EQ(d.tuple(0).value(schema->MustFindAttribute("phn")),
            Value("9999999"));
}

TEST(SortNTest, FindsWindowLocalMatches) {
  auto rs = uniclean::testing::PaperRuleSet();
  Relation dm = uniclean::testing::CardMaster();
  // Build a clean single-tuple relation equal to master s1's projection so
  // the premise holds and keys sort adjacently.
  auto schema = uniclean::testing::TranSchema();
  Relation d(schema);
  d.AddRow({"Mark", "Smith", "10 Oak St", "Edi", "131", "EH8 9LE", "3256778",
            "Male", "item", "when", "UK"});
  auto parsed = rules::ParseRules(uniclean::testing::PaperRuleText(), schema,
                                  uniclean::testing::CardSchema());
  ASSERT_TRUE(parsed.ok());
  auto matches =
      baselines::SortedNeighborhoodMatch(d, dm, parsed->mds, {});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], (baselines::MatchPair{0, 0}));
}

TEST(SortNTest, MissesMatchesWhoseDirtyKeysSortApart) {
  // On the dirty paper data no premise holds, so SortN finds nothing —
  // while cleaning first recovers the matches (repairing helps matching).
  auto rs = uniclean::testing::PaperRuleSet();
  Relation d = uniclean::testing::TranDirty();
  Relation dm = uniclean::testing::CardMaster();
  auto parsed = rules::ParseRules(uniclean::testing::PaperRuleText(),
                                  uniclean::testing::TranSchema(),
                                  uniclean::testing::CardSchema());
  ASSERT_TRUE(parsed.ok());
  auto before = baselines::SortedNeighborhoodMatch(d, dm, parsed->mds, {});
  EXPECT_TRUE(before.empty());
  Clean(&d, dm, rs, /*eta=*/0.8);
  auto after = baselines::FindAllMatches(d, dm, parsed->mds);
  EXPECT_GE(after.size(), 3u);  // t1-s1, t3-s2, t4-s2
}

TEST(MetricsTest, RepairAccuracyCounts) {
  auto schema = data::MakeSchema("r", {"A", "B"});
  Relation truth(schema), dirty(schema), repaired(schema);
  truth.AddRow({"a", "b"});
  dirty.AddRow({"x", "b"});     // one error in A
  repaired.AddRow({"a", "c"});  // A corrected, B wrongly updated
  auto pr = eval::RepairAccuracy(dirty, repaired, truth);
  EXPECT_DOUBLE_EQ(pr.precision, 0.5);  // 1 of 2 updates correct
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);     // the 1 error was corrected
  EXPECT_NEAR(pr.F(), 2.0 * 0.5 / 1.5, 1e-12);
}

TEST(MetricsTest, PerfectAndEmptyEdgeCases) {
  auto schema = data::MakeSchema("r", {"A"});
  Relation truth(schema), clean_copy(schema);
  truth.AddRow({"a"});
  clean_copy.AddRow({"a"});
  auto pr = eval::RepairAccuracy(clean_copy, clean_copy, truth);
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);
  EXPECT_DOUBLE_EQ(pr.F(), 1.0);
}

TEST(MetricsTest, MatchAccuracy) {
  std::vector<std::pair<data::TupleId, data::TupleId>> found{{0, 0}, {1, 1},
                                                             {2, 5}};
  std::vector<std::pair<data::TupleId, data::TupleId>> truth{{0, 0}, {1, 1},
                                                             {3, 2}};
  auto pr = eval::MatchAccuracy(found, truth);
  EXPECT_NEAR(pr.precision, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(pr.recall, 2.0 / 3.0, 1e-12);
}

TEST(IntegrationTest, UniBeatsQuaidOnHosp) {
  // The headline claim (Exp-1): unifying matching and repairing beats
  // CFD-only repairing in F-measure.
  gen::Dataset ds = gen::GenerateHosp(SmallConfig());
  Relation uni = ds.dirty.Clone();
  // η = 1: the paper's experimental confidence threshold.
  Clean(&uni, ds.master, ds.rules, /*eta=*/1.0);
  auto uni_pr = eval::RepairAccuracy(ds.dirty, uni, ds.clean);

  Relation quaid = ds.dirty.Clone();
  baselines::Quaid(&quaid, ds.rules);
  auto quaid_pr = eval::RepairAccuracy(ds.dirty, quaid, ds.clean);

  EXPECT_GT(uni_pr.F(), quaid_pr.F());
  EXPECT_GT(uni_pr.F(), 0.5);
}

TEST(IntegrationTest, UniFindsMoreMatchesThanSortNOnDblp) {
  // The Exp-2 claim: repairing helps matching. SortN's sorted-window
  // blocking misses dirty tuples whose corrupted key attributes sort far
  // from their master counterpart; repairing first recovers them.
  gen::GeneratorConfig config = SmallConfig();
  config.noise_rate = 0.10;
  gen::Dataset ds = gen::GenerateDblp(config);

  baselines::SortNOptions sortn_opts;
  sortn_opts.window = 3;
  auto sortn = baselines::SortedNeighborhoodMatch(
      ds.dirty, ds.master, ds.rules.mds(), sortn_opts);
  auto sortn_pr = eval::MatchAccuracy(sortn, ds.true_matches);

  Relation cleaned = ds.dirty.Clone();
  Clean(&cleaned, ds.master, ds.rules, /*eta=*/1.0);
  auto uni = baselines::FindAllMatches(cleaned, ds.master, ds.rules.mds());
  auto uni_pr = eval::MatchAccuracy(uni, ds.true_matches);

  EXPECT_GT(uni_pr.F(), sortn_pr.F());
}

}  // namespace
}  // namespace uniclean
