// Property test for the interned-value data core: the pipeline's observable
// behavior must be a function of the cell *strings*, never of the interned
// ids. For each seeded HOSP / DBLP / TPCH sample the full Session::Run is
// executed twice under ScopedStringPool — once with the natural id
// assignment and once with thousands of junk strings interned first, which
// permutes every id the run sees — and the FixJournal serializations
// (byte-for-byte) and the repaired relation (string-compared, the shim for
// the old string-equality path) must be identical.

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/string_pool.h"
#include "gen/dataset.h"
#include "uniclean/engine.h"

namespace uniclean {
namespace {

struct RunOutcome {
  std::string journal_text;
  std::string journal_csv;
  /// The repaired relation materialized back to strings (null token "\\N"):
  /// comparing these compares cell *contents*, independent of ids.
  std::vector<std::vector<std::string>> repaired;
};

class InterningParity
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {
 protected:
  gen::Dataset Generate() {
    auto [name, seed] = GetParam();
    gen::GeneratorConfig config;
    config.num_tuples = 250;
    config.master_size = 120;
    config.noise_rate = 0.08;
    config.dup_rate = 0.4;
    config.asserted_rate = 0.4;
    config.seed = seed;
    if (name == "HOSP") return gen::GenerateHosp(config);
    if (name == "DBLP") return gen::GenerateDblp(config);
    return gen::GenerateTpch(config);
  }

  /// Runs the full pipeline inside a fresh string pool. When `junk > 0`,
  /// that many random strings are interned first so every subsequently
  /// interned value receives a different (shifted/permuted) id than in the
  /// junk-free run.
  RunOutcome RunScoped(int junk) {
    data::ScopedStringPool scoped;
    if (junk > 0) {
      Rng rng(99);
      for (int i = 0; i < junk; ++i) {
        std::string s = "junk-";
        for (int k = 0; k < 8; ++k) {
          s.push_back(static_cast<char>('A' + rng.Uniform(0, 25)));
        }
        s += std::to_string(i);
        scoped.pool().Intern(s);
      }
    }
    gen::Dataset ds = Generate();
    RunOutcome outcome;
    auto engine = EngineBuilder()
                      .WithDataSchema(ds.dirty.schema_ptr())
                      .WithMaster(&ds.master)
                      .WithRules(&ds.rules)
                      .WithEta(1.0)
                      .BuildEngine();
    if (!engine.ok()) {
      ADD_FAILURE() << "Build failed: " << engine.status().ToString();
      return outcome;
    }
    Session session = (*engine)->NewSession();
    auto result = session.Run(&ds.dirty);
    if (!result.ok()) {
      ADD_FAILURE() << "Run failed: " << result.status().ToString();
      return outcome;
    }
    std::ostringstream text;
    std::ostringstream csv;
    EXPECT_TRUE(result->journal.WriteText(text).ok());
    EXPECT_TRUE(result->journal.WriteCsv(csv).ok());
    outcome.journal_text = text.str();
    outcome.journal_csv = csv.str();
    const data::Relation& repaired = ds.dirty;
    outcome.repaired.reserve(static_cast<size_t>(repaired.size()));
    for (const data::Tuple& t : repaired.tuples()) {
      std::vector<std::string> row;
      row.reserve(t.values().size());
      for (const data::Value& v : t.values()) row.push_back(v.ToString());
      outcome.repaired.push_back(std::move(row));
    }
    return outcome;
  }
};

TEST_P(InterningParity, JournalIsInvariantUnderIdPermutation) {
  RunOutcome natural = RunScoped(/*junk=*/0);
  RunOutcome permuted = RunScoped(/*junk=*/5000);
  EXPECT_FALSE(natural.journal_csv.empty());
  EXPECT_EQ(natural.journal_text, permuted.journal_text);
  EXPECT_EQ(natural.journal_csv, permuted.journal_csv);
  EXPECT_EQ(natural.repaired, permuted.repaired);
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, InterningParity,
    ::testing::Combine(::testing::Values("HOSP", "DBLP", "TPCH"),
                       ::testing::Values(11u, 29u)),
    [](const ::testing::TestParamInfo<InterningParity::ParamType>& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace uniclean
