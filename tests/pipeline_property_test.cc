// Cross-dataset property suites for the whole pipeline. These are the
// repository's strongest guarantees: for every generated workload and seed,
//   * the final repair satisfies every CFD and MD (§7 / Corollary 7.1),
//   * deterministic fixes are always correct w.r.t. ground truth (the §5
//     accuracy claim under correct confidences),
//   * deterministic fixes survive the later phases untouched,
//   * suffix-array blocking never changes the result, only the speed,
//   * cRepair's outcome is invariant to the order rules are listed in.

#include <algorithm>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "core/crepair.h"
#include "core/erepair.h"
#include "core/hrepair.h"
#include "eval/metrics.h"
#include "gen/dataset.h"
#include "rules/violation.h"
#include "uniclean/engine.h"

namespace uniclean {
namespace {

using data::FixMark;
using data::Relation;

class PipelineProperties
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {
 protected:
  gen::Dataset Generate() {
    auto [name, seed] = GetParam();
    gen::GeneratorConfig config;
    config.num_tuples = 400;
    config.master_size = 150;
    config.noise_rate = 0.08;
    config.dup_rate = 0.4;
    config.asserted_rate = 0.4;
    config.seed = seed;
    if (name == "HOSP") return gen::GenerateHosp(config);
    if (name == "DBLP") return gen::GenerateDblp(config);
    return gen::GenerateTpch(config);
  }

  /// Cleans `*d` in place through the full pipeline with the paper's
  /// thresholds (η = 1, δ2 = 0.8) on a fresh engine.
  static CleanResult CleanPaper(const gen::Dataset& ds, Relation* d,
                                const core::MdMatcherOptions& matcher = {}) {
    auto engine = EngineBuilder()
                      .WithDataSchema(d->schema_ptr())
                      .WithMaster(&ds.master)
                      .WithRules(&ds.rules)
                      .WithEta(1.0)
                      .WithDelta2(0.8)
                      .WithMatcherOptions(matcher)
                      .BuildEngine();
    UC_CHECK(engine.ok()) << engine.status().ToString();
    Session session = (*engine)->NewSession();
    auto result = session.Run(d);
    UC_CHECK(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }
};

TEST_P(PipelineProperties, FinalRepairIsConsistent) {
  gen::Dataset ds = Generate();
  Relation d = ds.dirty.Clone();
  CleanResult result = CleanPaper(ds, &d);
  EXPECT_EQ(result.phase("hRepair")->counter("anomalies"), 0);
  EXPECT_EQ(rules::CountViolations(d, ds.master, ds.rules), 0u);
}

TEST_P(PipelineProperties, DeterministicFixesAreAlwaysCorrect) {
  // §5: with correct confidence placement (the generator asserts only
  // correct cells), every deterministic fix equals the ground truth.
  gen::Dataset ds = Generate();
  Relation d = ds.dirty.Clone();
  core::MatchEnvironment env(ds.rules, ds.master);
  core::CRepairOptions copts;
  copts.eta = 1.0;
  auto stats = core::CRepair(&d, env, copts);
  EXPECT_GT(stats.deterministic_fixes, 0);
  int checked = 0;
  for (data::TupleId t = 0; t < d.size(); ++t) {
    for (data::AttributeId a = 0; a < d.schema().arity(); ++a) {
      if (d.tuple(t).mark(a) != FixMark::kDeterministic) continue;
      EXPECT_EQ(d.tuple(t).value(a), ds.clean.tuple(t).value(a))
          << "cell (" << t << ", " << a << ")";
      ++checked;
    }
  }
  EXPECT_EQ(checked, stats.deterministic_fixes);
}

TEST_P(PipelineProperties, DeterministicFixesSurviveLaterPhases) {
  gen::Dataset ds = Generate();
  Relation d = ds.dirty.Clone();
  core::MatchEnvironment env(ds.rules, ds.master);
  core::CRepairOptions copts;
  copts.eta = 1.0;
  core::CRepair(&d, env, copts);
  Relation after_c = d.Clone();
  core::ERepairOptions eopts;
  eopts.eta = 1.0;
  core::ERepair(&d, env, eopts);
  core::HRepair(&d, env, {});
  for (data::TupleId t = 0; t < d.size(); ++t) {
    for (data::AttributeId a = 0; a < d.schema().arity(); ++a) {
      if (after_c.tuple(t).mark(a) != FixMark::kDeterministic) continue;
      EXPECT_EQ(d.tuple(t).value(a), after_c.tuple(t).value(a));
      EXPECT_EQ(d.tuple(t).mark(a), FixMark::kDeterministic);
    }
  }
}

TEST_P(PipelineProperties, BlockingDoesNotChangeTheResult) {
  gen::Dataset ds = Generate();
  core::MdMatcherOptions without;
  without.use_blocking = false;
  Relation a = ds.dirty.Clone();
  Relation b = ds.dirty.Clone();
  CleanPaper(ds, &a);
  CleanPaper(ds, &b, without);
  EXPECT_EQ(a.CellDiffCount(b), 0);
}

TEST_P(PipelineProperties, CRepairIsRuleOrderInvariant) {
  // §5.2: "the order in which rules are applied does not impact the quality
  // of the final result". Rebuild the rule set with rules listed in a
  // shuffled order and compare cell-by-cell.
  gen::Dataset ds = Generate();
  std::vector<rules::Cfd> cfds = ds.rules.cfds();
  std::vector<rules::Md> mds = ds.rules.mds();
  Rng rng(std::get<1>(GetParam()) * 31 + 7);
  rng.Shuffle(&cfds);
  rng.Shuffle(&mds);
  auto shuffled = rules::RuleSet::Make(ds.rules.data_schema_ptr(),
                                       ds.rules.master_schema_ptr(),
                                       std::move(cfds), std::move(mds));
  ASSERT_TRUE(shuffled.ok());
  core::CRepairOptions copts;
  copts.eta = 1.0;
  Relation a = ds.dirty.Clone();
  Relation b = ds.dirty.Clone();
  core::MatchEnvironment listed_env(ds.rules, ds.master);
  core::MatchEnvironment shuffled_env(shuffled.value(), ds.master);
  core::CRepair(&a, listed_env, copts);
  core::CRepair(&b, shuffled_env, copts);
  EXPECT_EQ(a.CellDiffCount(b), 0);
}

TEST_P(PipelineProperties, PipelineNeverHurtsBelowDirtyBaseline) {
  // Sanity floor: the cleaned relation has no more errors than the dirty
  // input (the pipeline converges toward the truth on these workloads).
  gen::Dataset ds = Generate();
  Relation d = ds.dirty.Clone();
  CleanPaper(ds, &d);
  EXPECT_LT(eval::ErrorCount(d, ds.clean), eval::ErrorCount(ds.dirty, ds.clean));
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, PipelineProperties,
    ::testing::Combine(::testing::Values("HOSP", "DBLP", "TPCH"),
                       ::testing::Values<uint64_t>(11, 22, 33)),
    [](const ::testing::TestParamInfo<PipelineProperties::ParamType>& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace uniclean
