#include <algorithm>
#include <set>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/corrupt.h"
#include "gen/dataset.h"
#include "rules/violation.h"

namespace uniclean {
namespace gen {
namespace {

GeneratorConfig SmallConfig(uint64_t seed) {
  GeneratorConfig config;
  config.num_tuples = 600;
  config.master_size = 200;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.asserted_rate = 0.4;
  config.seed = seed;
  return config;
}

class GeneratorSuite
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {
 protected:
  Dataset Generate() {
    auto [name, seed] = GetParam();
    GeneratorConfig config = SmallConfig(seed);
    if (name == "HOSP") return GenerateHosp(config);
    if (name == "DBLP") return GenerateDblp(config);
    return GenerateTpch(config);
  }
};

TEST_P(GeneratorSuite, ShapesMatchThePaper) {
  Dataset ds = Generate();
  if (ds.name == "HOSP") {
    EXPECT_EQ(ds.dirty.schema().arity(), 19);
  } else if (ds.name == "DBLP") {
    EXPECT_EQ(ds.dirty.schema().arity(), 12);
  } else {
    EXPECT_EQ(ds.dirty.schema().arity(), 58);
  }
  EXPECT_EQ(ds.dirty.size(), 600);
  EXPECT_EQ(ds.clean.size(), 600);
  EXPECT_EQ(ds.master.size(), 200);
}

TEST_P(GeneratorSuite, CleanDataSatisfiesAllRules) {
  // §8: the sources are consistent with the designed CFDs and MDs; repairs
  // are evaluated against them as ground truth.
  Dataset ds = Generate();
  EXPECT_EQ(rules::CountViolations(ds.clean, ds.master, ds.rules), 0u)
      << ds.name;
}

TEST_P(GeneratorSuite, DirtyDataHasErrorsAtRoughlyTheNoiseRate) {
  Dataset ds = Generate();
  int errors = ds.dirty.CellDiffCount(ds.clean);
  int covered_cells =
      ds.dirty.size() * static_cast<int>(ds.rules.RuleAttributes().size());
  double rate = static_cast<double>(errors) / covered_cells;
  EXPECT_GT(rate, 0.03) << ds.name;
  EXPECT_LT(rate, 0.09) << ds.name;
}

TEST_P(GeneratorSuite, TrueMatchesRespectDupRate) {
  Dataset ds = Generate();
  double dup = static_cast<double>(ds.true_matches.size()) / ds.dirty.size();
  EXPECT_GT(dup, 0.3) << ds.name;
  EXPECT_LT(dup, 0.5) << ds.name;
  // Every match id is in range and the clean tuple genuinely corresponds to
  // the master tuple (they share the master's key attribute value).
  for (auto [t, s] : ds.true_matches) {
    ASSERT_GE(t, 0);
    ASSERT_LT(t, ds.clean.size());
    ASSERT_GE(s, 0);
    ASSERT_LT(s, ds.master.size());
    // Attribute 0 of the master schema is the entity key in all three
    // generators; find it in the data schema by name.
    const std::string& key_name = ds.master.schema().attribute_name(0);
    auto key_attr = ds.clean.schema().FindAttribute(key_name);
    ASSERT_TRUE(key_attr.ok());
    EXPECT_EQ(ds.clean.tuple(t).value(key_attr.value()),
              ds.master.tuple(s).value(0));
  }
}

TEST_P(GeneratorSuite, ConfidenceProtocol) {
  // Asserted cells (cf = 1) are always correct; dirty cells have cf = 0.
  Dataset ds = Generate();
  int asserted = 0;
  for (data::TupleId t = 0; t < ds.dirty.size(); ++t) {
    for (data::AttributeId a = 0; a < ds.dirty.schema().arity(); ++a) {
      double cf = ds.dirty.tuple(t).confidence(a);
      ASSERT_TRUE(cf == 0.0 || cf == 1.0);
      if (cf == 1.0) {
        ++asserted;
        EXPECT_EQ(ds.dirty.tuple(t).value(a), ds.clean.tuple(t).value(a));
      }
    }
  }
  EXPECT_GT(asserted, 0);
}

TEST_P(GeneratorSuite, DeterministicForSameSeed) {
  Dataset a = Generate();
  Dataset b = Generate();
  EXPECT_EQ(a.dirty.CellDiffCount(b.dirty), 0);
  EXPECT_EQ(a.true_matches, b.true_matches);
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, GeneratorSuite,
    ::testing::Combine(::testing::Values("HOSP", "DBLP", "TPCH"),
                       ::testing::Values<uint64_t>(1, 7, 42)),
    [](const ::testing::TestParamInfo<GeneratorSuite::ParamType>& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(GeneratorRuleCounts, MatchThePaper) {
  GeneratorConfig config = SmallConfig(3);
  Dataset hosp = GenerateHosp(config);
  Dataset dblp = GenerateDblp(config);
  Dataset tpch = GenerateTpch(config);
  // Normalized counts: HOSP 23 CFDs are all single-RHS; its 3 MDs normalize
  // to 3+2+2 = 7. DBLP: 7 CFDs; MDs 3+2+2 = 7. TPCH: 55 CFDs; 10 MDs
  // normalize to 2+2+1+1+1+1+1+1+1+1 = 12.
  EXPECT_EQ(hosp.rules.cfds().size(), 23u);
  EXPECT_EQ(hosp.rules.mds().size(), 7u);
  EXPECT_EQ(dblp.rules.cfds().size(), 7u);
  EXPECT_EQ(dblp.rules.mds().size(), 7u);
  EXPECT_EQ(tpch.rules.cfds().size(), 55u);
  EXPECT_EQ(tpch.rules.mds().size(), 12u);
}

TEST(GeneratorExtras, TpchExtraRulesForScalabilitySweeps) {
  GeneratorConfig config = SmallConfig(5);
  config.extra_cfds = 20;
  config.extra_mds = 10;
  Dataset ds = GenerateTpch(config);
  EXPECT_EQ(ds.rules.cfds().size(), 75u);
  EXPECT_EQ(ds.rules.mds().size(), 22u);
  // The extra rules still hold on clean data.
  EXPECT_EQ(rules::CountViolations(ds.clean, ds.master, ds.rules), 0u);
}

TEST(CorruptTest, InjectNoiseRespectsAttributeList) {
  auto schema = data::MakeSchema("r", {"A", "B"});
  data::Relation d(schema);
  for (int i = 0; i < 200; ++i) {
    d.AddRow({"value" + std::to_string(i), "keep" + std::to_string(i)});
  }
  data::Relation before = d.Clone();
  Rng rng(17);
  int corrupted = InjectNoise(&d, {0}, 0.5, &rng);
  EXPECT_GT(corrupted, 50);
  EXPECT_EQ(d.CellDiffCount(before), corrupted);
  for (int i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d.tuple(i).value(1), before.tuple(i).value(1));
  }
}

TEST(CorruptTest, AssignConfidenceOnlyAssertsCorrectCells) {
  auto schema = data::MakeSchema("r", {"A"});
  data::Relation truth(schema);
  data::Relation d(schema);
  for (int i = 0; i < 100; ++i) {
    truth.AddRow({"v" + std::to_string(i)});
    d.AddRow({i % 2 == 0 ? "v" + std::to_string(i) : "wrong"});
  }
  Rng rng(23);
  AssignConfidence(&d, truth, 1.0, &rng);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(d.tuple(i).confidence(0), i % 2 == 0 ? 1.0 : 0.0);
  }
}

}  // namespace
}  // namespace gen
}  // namespace uniclean
