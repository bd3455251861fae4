// CSV ingest pins: the ids data::ReadCsv mints and the confidences
// ReadConfidenceCsv parses, recorded before the string pool's flat index and
// the from_chars confidence path went in. Both changes must be invisible:
//  * CsvIngestPin.* reads generated HOSP, DBLP and TPC-H CSVs into a fresh
//    pool and pins the pool's generation (count and PrefixHash) plus an
//    FNV-1a-64 digest over every tuple's value ids and confidence bits, so
//    ids must still be minted in first-seen order;
//  * CsvIngestPin.ConfidenceParseParity pins the status code, message and
//    value bits of every cell of a fixed list, 2,000 seeded random cells
//    and 1,000 seeded decimals, so the accepted set and values must stay
//    strtod's in the C locale.
// CsvConcurrency.* reads one slice from two threads at once (the TSan CI job
// runs it) and requires identical tuples.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/csv.h"
#include "data/relation.h"
#include "data/schema.h"
#include "data/string_pool.h"
#include "gen/dataset.h"

namespace uniclean {
namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

uint64_t Fnv1a64(std::string_view bytes, uint64_t hash = kFnvOffset) {
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Folds the little-endian bytes of an integer into an FNV-1a-64 digest.
uint64_t FnvU64(uint64_t v, uint64_t hash) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (v >> (8 * i)) & 0xFF;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

/// A generated dataset as the CSV text a CLI run or a CLEAN would carry.
struct DatasetCsvs {
  data::SchemaPtr data_schema;
  data::SchemaPtr master_schema;
  std::string data;
  std::string master;
  std::string confidence;
};

/// Generates `name` in a pool of its own, so the generator's interning
/// order never reaches the pool the CSVs are read into.
DatasetCsvs WriteDataset(const std::string& name, int tuples, int master,
                         uint64_t seed) {
  data::ScopedStringPool scoped;
  gen::GeneratorConfig config;
  config.num_tuples = tuples;
  config.master_size = master;
  config.seed = seed;
  const gen::Dataset ds = name == "HOSP"   ? gen::GenerateHosp(config)
                          : name == "DBLP" ? gen::GenerateDblp(config)
                                           : gen::GenerateTpch(config);
  DatasetCsvs csvs;
  csvs.data_schema = ds.dirty.schema_ptr();
  csvs.master_schema = ds.master.schema_ptr();
  std::ostringstream data;
  std::ostringstream master_csv;
  std::ostringstream confidence;
  EXPECT_TRUE(data::WriteCsv(data, ds.dirty).ok());
  EXPECT_TRUE(data::WriteCsv(master_csv, ds.master).ok());
  EXPECT_TRUE(data::WriteConfidenceCsv(confidence, ds.dirty).ok());
  csvs.data = data.str();
  csvs.master = master_csv.str();
  csvs.confidence = confidence.str();
  return csvs;
}

/// Every tuple's value ids, and with `confidences` every confidence's bits.
uint64_t RelationDigest(const data::Relation& relation, bool confidences,
                        uint64_t hash) {
  for (const data::Tuple& t : relation.tuples()) {
    for (int a = 0; a < t.arity(); ++a) {
      hash = FnvU64(t.value(a).id(), hash);
      if (confidences) hash = FnvU64(Bits(t.confidence(a)), hash);
    }
  }
  return hash;
}

struct PoolPin {
  const char* dataset;
  int tuples;
  int master;
  uint64_t seed;
  uint64_t count;  ///< pool size after the dataset's three CSVs
  uint64_t hash;   ///< StringPool::PrefixHash over that size
  uint64_t digest;
};

TEST(CsvIngestPin, PoolGenerationAndTupleDigests) {
  // One pool for all three datasets, read in this order: every dataset
  // after the first starts from a pool that already holds strings.
  const std::vector<PoolPin> pins = {
      {"HOSP", 600, 300, 7, 3677, 0x31b8cef4f2cd9d6dull,
       0x3c811b443f8de0e3ull},
      {"DBLP", 600, 300, 8, 5766, 0x4300d9bffe15d22dull,
       0xa29e9a34aac2bc66ull},
      {"TPCH", 400, 200, 9, 10752, 0x9b997844b61d997bull,
       0x574ba004203b0307ull},
  };
  std::vector<DatasetCsvs> csvs;
  for (const PoolPin& pin : pins) {
    csvs.push_back(
        WriteDataset(pin.dataset, pin.tuples, pin.master, pin.seed));
  }
  data::ScopedStringPool scoped;
  for (size_t i = 0; i < pins.size(); ++i) {
    const PoolPin& pin = pins[i];
    std::istringstream data_in(csvs[i].data);
    auto data = data::ReadCsv(data_in, csvs[i].data_schema);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    std::istringstream master_in(csvs[i].master);
    auto master = data::ReadCsv(master_in, csvs[i].master_schema);
    ASSERT_TRUE(master.ok()) << master.status().ToString();
    std::istringstream confidence_in(csvs[i].confidence);
    const Status status = data::ReadConfidenceCsv(confidence_in, &*data);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(data->size(), static_cast<size_t>(pin.tuples));

    const data::StringPoolGeneration gen = scoped.pool().Generation();
    const uint64_t digest = RelationDigest(
        *master, false, RelationDigest(*data, true, kFnvOffset));
    EXPECT_EQ(gen.count, pin.count) << pin.dataset;
    EXPECT_EQ(Hex(gen.hash), Hex(pin.hash)) << pin.dataset;
    EXPECT_EQ(Hex(digest), Hex(pin.digest)) << pin.dataset;
  }
}

/// The cells the parity pin feeds ReadConfidenceCsv, in order.
std::vector<std::string> ConfidenceCells() {
  // CsvRobustness.RandomConfidenceCellsAreInRangeOrAnError's list ...
  std::vector<std::string> cells = {
      "0",    "1",    "0.5",  "1.0000001", "-0",      "-0.1", "nan", "-nan",
      "NAN",  "inf",  "-inf", "1e-400",    "1e400",   "0x1p-1", "",  "\\N",
      " 0.5", "0.5 ", "abc",  "\"0.25\"",  "\"0.2", ".",     "+0.5"};
  // ... boundary decimals: rounding, the subnormal and normal minima,
  // leading zeros, exponents, bare points, long mantissas ...
  for (const char* cell :
       {"0.1", "0.30000000000000004", "0.9999999999999999", "1.0",
        "4.9406564584124654e-324", "2.2250738585072014e-308", "000.5", "5e-1",
        ".5", "5.", "0.1234567890123456789012345678901234567890",
        "1.000000000000000000000000000000000000000",
        "0.000000000000000000000000000000000000001", "0e999", "0.0e-999",
        "-0.0", "1e0", "1E-0", "00", "0.", "-.0", "1.00000000000000001",
        "2.2250738585072011e-308", "2.2250738585072012e-308"}) {
    cells.push_back(cell);
  }
  // ... 2,000 seeded cells from the robustness test's alphabet ...
  static const char kChars[] = "0123456789.eE+-naifNAIF x,\"";
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    std::string cell;
    for (size_t len = 1 + rng.Index(8); len > 0; --len) {
      cell.push_back(kChars[rng.Index(sizeof(kChars) - 1)]);
    }
    cells.push_back(cell);
  }
  // ... and 1,000 seeded decimals, most of them in range, so the pinned
  // value bits cover many roundings: 1-25 fraction digits, some with a
  // negative exponent.
  for (int i = 0; i < 1000; ++i) {
    std::string cell = rng.Bernoulli(0.9) ? "0." : "1.";
    for (size_t len = 1 + rng.Index(25); len > 0; --len) {
      cell.push_back(static_cast<char>('0' + rng.Index(10)));
    }
    if (rng.Bernoulli(0.2)) {
      cell += "e-" + std::to_string(rng.Index(320));
    }
    cells.push_back(cell);
  }
  return cells;
}

TEST(CsvIngestPin, ConfidenceParseParity) {
  auto schema = data::MakeSchema("t", {"a", "b"});
  uint64_t digest = kFnvOffset;
  int accepted = 0;
  for (const std::string& cell : ConfidenceCells()) {
    data::Relation relation(schema);
    relation.AddRow({"x", "y"});
    // The first column holds a fixed value, so an empty cell is a field,
    // not a blank record.
    std::istringstream in("a,b\n0.5," + cell + "\n");
    const Status status = data::ReadConfidenceCsv(in, &relation);
    digest = FnvU64(static_cast<uint64_t>(status.code()), digest);
    digest = Fnv1a64(status.message(), digest);
    if (status.ok()) {
      ++accepted;
      digest = FnvU64(Bits(relation.tuple(0).confidence(1)), digest);
    }
  }
  EXPECT_EQ(accepted, 972);
  EXPECT_EQ(Hex(digest), "0x3f24ce480725e67d");
}

TEST(CsvConcurrency, TwoThreadsReadOneSliceIdentically) {
  // A 250-row slice, the size of one serve_clean CLEAN, read twice at once
  // into a fresh pool: both readers race to mint the same strings.
  const DatasetCsvs csvs = WriteDataset("HOSP", 250, 100, 5);
  data::ScopedStringPool scoped;
  Result<data::Relation> results[2] = {Status::Internal("not run"),
                                       Status::Internal("not run")};
  {
    std::vector<std::thread> readers;
    for (Result<data::Relation>& result : results) {
      readers.emplace_back([&csvs, &result] {
        std::istringstream in(csvs.data);
        result = data::ReadCsv(in, csvs.data_schema);
      });
    }
    for (std::thread& reader : readers) reader.join();
  }
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  ASSERT_TRUE(results[1].ok()) << results[1].status().ToString();
  const data::Relation& a = *results[0];
  const data::Relation& b = *results[1];
  ASSERT_EQ(a.size(), 250u);
  ASSERT_EQ(b.size(), a.size());
  for (data::TupleId t = 0; t < a.size(); ++t) {
    for (int attr = 0; attr < a.schema().arity(); ++attr) {
      ASSERT_EQ(a.tuple(t).value(attr).id(), b.tuple(t).value(attr).id())
          << "tuple " << t << ", attribute " << attr;
    }
  }
  // Every id was minted once: the pool holds "" plus the distinct cells.
  std::vector<bool> seen(scoped.pool().size(), false);
  size_t distinct = 1;
  seen[data::StringPool::kEmptyId] = true;
  for (const data::Tuple& t : a.tuples()) {
    for (int attr = 0; attr < t.arity(); ++attr) {
      const data::Value& v = t.value(attr);
      if (v.is_null() || seen[v.id()]) continue;
      seen[v.id()] = true;
      ++distinct;
    }
  }
  EXPECT_EQ(scoped.pool().size(), distinct);
}

}  // namespace
}  // namespace uniclean
