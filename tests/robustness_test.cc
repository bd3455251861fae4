// Failure-injection / robustness suite: malformed rule programs, corrupt
// CSV, and adversarial random inputs must produce Status errors (or clean
// parses), never crashes or silent corruption.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "data/schema.h"
#include "gen/dataset.h"
#include "rules/parser.h"
#include "similarity/suffix_tree.h"

namespace uniclean {
namespace {

using data::MakeSchema;

class ParserFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzz, RandomGarbageNeverCrashes) {
  Rng rng(GetParam());
  auto schema = MakeSchema("r", {"A", "B"});
  static const char kChars[] = "CFD MD NEGMD:->=~&,'#!_ abAB0.|";
  for (int i = 0; i < 300; ++i) {
    std::string text;
    size_t len = rng.Index(80);
    for (size_t j = 0; j < len; ++j) {
      text.push_back(kChars[rng.Index(sizeof(kChars) - 1)]);
    }
    text.push_back('\n');
    auto result = rules::ParseRules(text, schema, schema);
    if (result.ok()) {
      // A lucky parse must still produce structurally valid rules.
      for (const auto& cfd : result->cfds) {
        EXPECT_FALSE(cfd.rhs().empty());
      }
    } else {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values<uint64_t>(1, 2, 3, 4));

TEST(ParserRobustness, TruncatedConstructsAreErrors) {
  auto schema = MakeSchema("r", {"A", "B"});
  for (const char* text : {
           "CFD",                       // bare keyword (parsed as name?)
           "CFD x: A ->",               // empty RHS
           "CFD x: A='unterminated -> B",  // quote never closed
           "MD m: A=B ->",              // no actions
           "MD m: ~jw: A -> A:=B",      // malformed clause
           "MD m: A ~jw:zz B -> A:=B",  // non-numeric threshold
           "MD m: A=B -> A=B",          // action missing ':='
           "NEGMD n: -> A:=B",          // empty premise
       }) {
    auto result = rules::ParseRules(std::string(text) + "\n", schema, schema);
    EXPECT_FALSE(result.ok()) << text;
  }
}

TEST(CsvRobustness, RandomBytesNeverCrashTheReader) {
  Rng rng(11);
  auto schema = MakeSchema("t", {"a", "b"});
  for (int i = 0; i < 200; ++i) {
    std::string text = "a,b\n";
    size_t len = rng.Index(120);
    for (size_t j = 0; j < len; ++j) {
      text.push_back(static_cast<char>(rng.Uniform(1, 126)));
    }
    std::istringstream in(text);
    auto result = data::ReadCsv(in, schema);
    if (result.ok()) {
      for (const auto& tuple : result->tuples()) {
        EXPECT_EQ(tuple.arity(), 2);
      }
    }
  }
}

TEST(CsvRobustness, MutatedHospHeadersNeverCrashTheLoader) {
  // Seeded mutations of a real HOSP header, each run through the CLI's load
  // path (InferCsvSchema + ReadCsvFile). A repeated column used to abort in
  // MakeSchema, a padded name to fail against its own inferred schema.
  gen::GeneratorConfig config;
  config.num_tuples = 20;
  config.master_size = 10;
  config.seed = 5;
  const gen::Dataset ds = gen::GenerateHosp(config);
  std::ostringstream csv;
  ASSERT_TRUE(data::WriteCsv(csv, ds.dirty).ok());
  const std::string text = csv.str();
  const size_t eol = text.find('\n');
  const std::vector<std::string> names = Split(text.substr(0, eol), ',');
  const std::string rows = text.substr(eol);
  const std::string path = ::testing::TempDir() + "/mutated_header.csv";
  Rng rng(17);
  for (int i = 0; i < 120; ++i) {
    std::vector<std::string> header = names;
    const size_t col = rng.Index(header.size());
    const int kind = static_cast<int>(rng.Index(4));
    switch (kind) {
      case 0: {  // duplicate a column
        const std::string name = header[col];
        header.insert(header.begin() + static_cast<long>(
                                           rng.Index(header.size() + 1)),
                      name);
        break;
      }
      case 1:  // pad a name
        header[col] = " " + header[col] + "\t ";
        break;
      case 2:  // quote a name
        header[col] = "\"" + header[col] + "\"";
        break;
      default:  // drop a column
        header.erase(header.begin() + static_cast<long>(col));
        break;
    }
    {
      std::ofstream out(path, std::ios::binary);
      out << Join(header, ",") << rows;
    }
    auto schema = data::InferCsvSchema(path, "data");
    if (kind == 0) {
      ASSERT_FALSE(schema.ok());
      EXPECT_EQ(schema.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    auto relation = data::ReadCsvFile(path, *schema);
    if (kind == 3) {
      ASSERT_FALSE(relation.ok());
      EXPECT_EQ(relation.status().code(), StatusCode::kInvalidArgument);
    } else {
      ASSERT_TRUE(relation.ok()) << relation.status().ToString();
      EXPECT_EQ(relation->size(), ds.dirty.size());
    }
  }
}

TEST(CsvRobustness, RandomConfidenceCellsAreInRangeOrAnError) {
  Rng rng(19);
  auto schema = MakeSchema("t", {"a", "b"});
  const std::vector<std::string> kCells = {
      "0",    "1",    "0.5",  "1.0000001", "-0",      "-0.1", "nan", "-nan",
      "NAN",  "inf",  "-inf", "1e-400",    "1e400",   "0x1p-1", "",  "\\N",
      " 0.5", "0.5 ", "abc",  "\"0.25\"",  "\"0.2", ".",     "+0.5"};
  static const char kChars[] = "0123456789.eE+-naifNAIF x,\"";
  for (int i = 0; i < 300; ++i) {
    std::string cells[2];
    for (std::string& cell : cells) {
      if (rng.Bernoulli(0.5)) {
        cell = rng.Choice(kCells);
      } else {
        for (size_t len = rng.Index(7); len > 0; --len) {
          cell.push_back(kChars[rng.Index(sizeof(kChars) - 1)]);
        }
      }
    }
    data::Relation relation(schema);
    relation.AddRow({"x", "y"});
    std::istringstream in("a,b\n" + cells[0] + "," + cells[1] + "\n");
    const Status status = data::ReadConfidenceCsv(in, &relation);
    if (status.ok()) {
      for (int a = 0; a < 2; ++a) {
        const double cf = relation.tuple(0).confidence(a);
        EXPECT_TRUE(cf >= 0.0 && cf <= 1.0) << cells[0] << "," << cells[1];
      }
    } else {
      EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument ||
                  status.code() == StatusCode::kCorruption)
          << status.ToString();
    }
  }
}

TEST(CsvRobustness, EmbeddedDelimitersRoundTrip) {
  auto schema = MakeSchema("t", {"x"});
  data::Relation r(schema);
  // Pathological values: quotes, delimiters, the null token itself as text.
  for (const char* v :
       {",,,", "\"\"\"", "a\"b,c\"d", "\\N-ish", "  spaces  "}) {
    r.AddRow({v});
  }
  std::ostringstream out;
  ASSERT_TRUE(data::WriteCsv(out, r).ok());
  std::istringstream in(out.str());
  auto back = data::ReadCsv(in, schema);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), r.size());
  for (int t = 0; t < r.size(); ++t) {
    EXPECT_EQ(back->tuple(t).value(0), r.tuple(t).value(0)) << t;
  }
}

TEST(SuffixTreeRobustness, BinaryAlphabetStress) {
  // High-repetition binary strings maximize suffix-link traffic.
  Rng rng(13);
  for (int round = 0; round < 5; ++round) {
    similarity::GeneralizedSuffixTree tree;
    int total = 0;
    for (int i = 0; i < 12; ++i) {
      std::string s;
      size_t len = rng.Index(200);
      for (size_t j = 0; j < len; ++j) {
        s.push_back(rng.Bernoulli(0.5) ? '0' : '1');
      }
      tree.AddString(s);
      total += static_cast<int>(s.size()) + 1;
    }
    tree.Build();
    auto starts = tree.AllSuffixStarts();
    ASSERT_EQ(static_cast<int>(starts.size()), total);
    // Queries never crash, results bounded.
    for (int q = 0; q < 20; ++q) {
      std::string query;
      size_t len = 1 + rng.Index(12);
      for (size_t j = 0; j < len; ++j) {
        query.push_back(rng.Bernoulli(0.5) ? '0' : '1');
      }
      auto top = tree.TopL(query, 5);
      EXPECT_LE(top.size(), 5u);
    }
  }
}

TEST(SchemaRobustness, EmptyAndUnicodeNames) {
  auto schema = MakeSchema("r", {"", "naïve", "名前"});
  EXPECT_EQ(schema->arity(), 3);
  EXPECT_TRUE(schema->FindAttribute("naïve").ok());
  EXPECT_TRUE(schema->FindAttribute("名前").ok());
  EXPECT_FALSE(schema->FindAttribute("missing").ok());
}

}  // namespace
}  // namespace uniclean
