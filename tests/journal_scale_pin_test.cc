// Cross-version pin of the fix journal at scale. The checked-in journal
// golden cleans a 60-tuple HOSP sample against a 30-tuple master. These runs
// clean HOSP, DBLP and TPC-H data against |Dm| = 1000, where suffix-array
// blocking cuts probes at 64 suffixes and keeps l candidates out of
// hundreds, and the similarity predicates judge far more pairs. Each
// compares an FNV-1a-64 digest of the journal CSV with a recorded value.
//
// The digests were recorded before the early-exit TopL, the multiset
// Jaro-Winkler bound and the suffix array (which replaced a suffix tree)
// went in; all three must leave every journal byte-identical. A
// Jaro-Winkler pre-filter that forgets the Winkler prefix bonus changes a
// digest here but not the golden. TopL's choice among tied candidates rarely
// reaches a journal, because the MD thresholds keep only near-identical
// values; suffix_array_test pins that choice directly.
//
// The blocking index takes no order from a hash map: a capped probe meets
// its suffixes in suffix order, which the indexed values alone fix.

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "data/string_pool.h"
#include "gen/dataset.h"
#include "uniclean/engine.h"

namespace uniclean {
namespace {

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

struct PinCase {
  const char* dataset;
  int tuples;
  uint64_t seed;
  uint64_t digest;  // FNV-1a-64 of the journal CSV
};

void PrintTo(const PinCase& pin, std::ostream* os) {
  *os << pin.dataset << " |D|=" << pin.tuples << " seed " << pin.seed;
}

class JournalScalePin : public ::testing::TestWithParam<PinCase> {};

TEST_P(JournalScalePin, JournalCsvDigestIsUnchanged) {
  const PinCase& pin = GetParam();
  data::ScopedStringPool pool;
  gen::GeneratorConfig config;
  config.num_tuples = pin.tuples;
  config.master_size = 1000;
  config.seed = pin.seed;
  const std::string name = pin.dataset;
  gen::Dataset ds = name == "HOSP"   ? gen::GenerateHosp(config)
                    : name == "DBLP" ? gen::GenerateDblp(config)
                                     : gen::GenerateTpch(config);

  auto engine = EngineBuilder()
                    .WithDataSchema(ds.dirty.schema_ptr())
                    .WithMaster(&ds.master)
                    .WithRules(&ds.rules)
                    .WithEta(1.0)
                    .BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Session session = (*engine)->NewSession();
  auto result = session.Run(&ds.dirty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::ostringstream csv;
  ASSERT_TRUE(result->journal.WriteCsv(csv).ok());
  ASSERT_GT(result->journal.size(), 0u);

  char actual[32];
  std::snprintf(actual, sizeof(actual), "0x%016" PRIx64, Fnv1a64(csv.str()));
  char expected[32];
  std::snprintf(expected, sizeof(expected), "0x%016" PRIx64, pin.digest);
  EXPECT_STREQ(actual, expected)
      << result->journal.size() << " journal entries";
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, JournalScalePin,
    ::testing::Values(PinCase{"HOSP", 500, 1, 0x77475a60ddce5502ull},
                      PinCase{"HOSP", 500, 2, 0xd2a9ac7d52298f9aull},
                      PinCase{"DBLP", 1000, 1, 0x2b9de5e25f424b0full},
                      PinCase{"DBLP", 1000, 2, 0x5377c3e05baf5c43ull},
                      PinCase{"TPCH", 1000, 1, 0xa2fbaefec39827d5ull},
                      PinCase{"TPCH", 1000, 2, 0x15e41967b96bd3a7ull}),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return std::string(info.param.dataset) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace uniclean
