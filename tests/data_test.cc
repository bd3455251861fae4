#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/relation.h"
#include "data/schema.h"
#include "data/value.h"

namespace uniclean {
namespace data {
namespace {

TEST(ValueTest, StrictEquality) {
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_NE(Value("a"), Value("b"));
  EXPECT_NE(Value("a"), Value::Null());
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value(""), Value::Null());
}

TEST(ValueTest, SqlEqualsTreatsNullAsWildcard) {
  // §7: t1[X] = t2[X] evaluates to true if either contains null.
  EXPECT_TRUE(Value::SqlEquals(Value::Null(), Value("x")));
  EXPECT_TRUE(Value::SqlEquals(Value("x"), Value::Null()));
  EXPECT_TRUE(Value::SqlEquals(Value::Null(), Value::Null()));
  EXPECT_TRUE(Value::SqlEquals(Value("x"), Value("x")));
  EXPECT_FALSE(Value::SqlEquals(Value("x"), Value("y")));
}

TEST(ValueTest, OrderingPutsNullFirst) {
  EXPECT_TRUE(Value::Null() < Value(""));
  EXPECT_TRUE(Value("a") < Value("b"));
  EXPECT_FALSE(Value("b") < Value("a"));
  EXPECT_FALSE(Value::Null() < Value::Null());
}

TEST(ValueTest, ToStringRendersNullToken) {
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(Value::Null().ToString(), "\\N");
  EXPECT_EQ(Value::Null().ToString("null"), "null");
}

TEST(SchemaTest, LookupByName) {
  SchemaPtr s = MakeSchema("tran", {"FN", "LN", "city"});
  EXPECT_EQ(s->relation_name(), "tran");
  EXPECT_EQ(s->arity(), 3);
  ASSERT_TRUE(s->FindAttribute("LN").ok());
  EXPECT_EQ(s->FindAttribute("LN").value(), 1);
  EXPECT_FALSE(s->FindAttribute("zip").ok());
  EXPECT_EQ(s->MustFindAttribute("city"), 2);
  EXPECT_EQ(s->attribute_name(0), "FN");
}

TEST(SchemaTest, AttributeNamesRoundTrip) {
  SchemaPtr s = MakeSchema("r", {"A", "B"});
  EXPECT_EQ(s->AttributeNames(), (std::vector<std::string>{"A", "B"}));
}

TEST(TupleTest, DefaultsAreEmptyWithZeroConfidence) {
  Tuple t(2);
  EXPECT_EQ(t.arity(), 2);
  EXPECT_EQ(t.value(0), Value(""));
  EXPECT_EQ(t.confidence(1), 0.0);
  EXPECT_EQ(t.mark(0), FixMark::kNone);
}

TEST(TupleTest, SettersAndProjectionEquals) {
  Tuple a(3), b(3);
  a.set_value(0, Value("x"));
  b.set_value(0, Value("x"));
  a.set_value(1, Value("y1"));
  b.set_value(1, Value("y2"));
  EXPECT_TRUE(a.ProjectionEquals(b, {0}));
  EXPECT_FALSE(a.ProjectionEquals(b, {0, 1}));
  a.set_confidence(2, 0.9);
  EXPECT_DOUBLE_EQ(a.confidence(2), 0.9);
  a.set_mark(2, FixMark::kDeterministic);
  EXPECT_EQ(a.mark(2), FixMark::kDeterministic);
}

TEST(FixMarkTest, Names) {
  EXPECT_STREQ(FixMarkToString(FixMark::kNone), "none");
  EXPECT_STREQ(FixMarkToString(FixMark::kDeterministic), "deterministic");
  EXPECT_STREQ(FixMarkToString(FixMark::kReliable), "reliable");
  EXPECT_STREQ(FixMarkToString(FixMark::kPossible), "possible");
}

TEST(RelationTest, AddRowAndAccess) {
  Relation r(MakeSchema("r", {"A", "B"}));
  EXPECT_TRUE(r.empty());
  TupleId t = r.AddRow({"1", "2"}, 0.5);
  EXPECT_EQ(r.size(), 1);
  EXPECT_EQ(r.tuple(t).value(1), Value("2"));
  EXPECT_DOUBLE_EQ(r.tuple(t).confidence(0), 0.5);
}

TEST(RelationTest, CloneIsDeep) {
  Relation r(MakeSchema("r", {"A"}));
  r.AddRow({"orig"});
  Relation copy = r.Clone();
  copy.mutable_tuple(0).set_value(0, Value("changed"));
  EXPECT_EQ(r.tuple(0).value(0), Value("orig"));
  EXPECT_EQ(copy.tuple(0).value(0), Value("changed"));
}

TEST(RelationTest, CellDiffCount) {
  Relation a(MakeSchema("r", {"A", "B"}));
  a.AddRow({"1", "2"});
  a.AddRow({"3", "4"});
  Relation b = a.Clone();
  EXPECT_EQ(a.CellDiffCount(b), 0);
  b.mutable_tuple(0).set_value(1, Value("9"));
  b.mutable_tuple(1).set_value(0, Value("9"));
  EXPECT_EQ(a.CellDiffCount(b), 2);
}

TEST(CsvTest, RoundTripWithHeaderQuotesAndNulls) {
  SchemaPtr schema = MakeSchema("t", {"name", "note"});
  Relation r(schema);
  r.AddRow({"plain", "simple"});
  Tuple t(2);
  t.set_value(0, Value("has,comma"));
  t.set_value(1, Value::Null());
  r.AddTuple(std::move(t));
  Tuple t2(2);
  t2.set_value(0, Value("has \"quote\""));
  t2.set_value(1, Value(""));
  r.AddTuple(std::move(t2));

  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(out, r).ok());
  std::istringstream in(out.str());
  auto back = ReadCsv(in, schema);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 3);
  EXPECT_EQ(back->tuple(1).value(0), Value("has,comma"));
  EXPECT_TRUE(back->tuple(1).value(1).is_null());
  EXPECT_EQ(back->tuple(2).value(0), Value("has \"quote\""));
  EXPECT_EQ(back->tuple(2).value(1), Value(""));
}

TEST(CsvTest, RoundTripWithEmbeddedNewlines) {
  // Quoted fields may span physical lines (RFC 4180 §2.6); the reader joins
  // them back into one logical record.
  SchemaPtr schema = MakeSchema("t", {"name", "note"});
  Relation r(schema);
  Tuple t(2);
  t.set_value(0, Value("line1\nline2"));
  t.set_value(1, Value("a,\"b\"\nc"));
  r.AddTuple(std::move(t));
  Tuple t2(2);
  // A '\r' inside a quoted field is content, not a CRLF line ending: the
  // value must round-trip byte-exactly.
  t2.set_value(0, Value("x\r\ny"));
  t2.set_value(1, Value("plain"));
  r.AddTuple(std::move(t2));
  r.AddRow({"after", "plain"});

  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(out, r).ok());
  std::istringstream in(out.str());
  auto back = ReadCsv(in, schema);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 3);
  EXPECT_EQ(back->tuple(0).value(0), Value("line1\nline2"));
  EXPECT_EQ(back->tuple(0).value(1), Value("a,\"b\"\nc"));
  EXPECT_EQ(back->tuple(1).value(0), Value("x\r\ny"));
  EXPECT_EQ(back->tuple(2).value(0), Value("after"));
}

TEST(CsvTest, StrayMidFieldQuoteStaysLiteral) {
  // ParseCsvRecord treats a quote that is not at field start as literal
  // content; the logical-record reader must agree and not join lines.
  SchemaPtr schema = MakeSchema("t", {"a", "b"});
  std::istringstream in("a,b\nx\"y,2\np,q\n");
  auto r = ReadCsv(in, schema);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2);
  EXPECT_EQ(r->tuple(0).value(0), Value("x\"y"));
  EXPECT_EQ(r->tuple(0).value(1), Value("2"));
  EXPECT_EQ(r->tuple(1).value(0), Value("p"));
}

TEST(CsvTest, BareCarriageReturnValueIsQuotedAndRoundTrips) {
  // A value ending in '\r' must be quoted on write, or the reader would
  // strip it as a CRLF line-ending artifact.
  SchemaPtr schema = MakeSchema("t", {"a"});
  Relation r(schema);
  Tuple t(1);
  t.set_value(0, Value("x\r"));
  r.AddTuple(std::move(t));
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(out, r).ok());
  EXPECT_NE(out.str().find("\"x\r\""), std::string::npos);
  std::istringstream in(out.str());
  auto back = ReadCsv(in, schema);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 1);
  EXPECT_EQ(back->tuple(0).value(0), Value("x\r"));
}

TEST(CsvTest, InferCsvSchemaReadsLogicalHeaderRecord) {
  // Schema inference must consume the same logical record ReadCsv would,
  // even when a header name contains a quoted newline.
  std::string path = ::testing::TempDir() + "/schema_nl.csv";
  {
    std::ofstream out(path);
    out << "\"first\nname\",city\nv1,v2\n";
  }
  auto schema = InferCsvSchema(path, "t");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  ASSERT_EQ((*schema)->arity(), 2);
  EXPECT_EQ((*schema)->attribute_name(0), "first\nname");
  EXPECT_EQ((*schema)->attribute_name(1), "city");
}

TEST(CsvTest, HeaderMismatchIsCorruption) {
  SchemaPtr schema = MakeSchema("t", {"a", "b"});
  std::istringstream in("a,WRONG\n1,2\n");
  auto r = ReadCsv(in, schema);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(CsvTest, ArityMismatchIsCorruption) {
  SchemaPtr schema = MakeSchema("t", {"a", "b"});
  std::istringstream in("a,b\n1,2,3\n");
  auto r = ReadCsv(in, schema);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(CsvTest, UnterminatedQuoteIsCorruption) {
  SchemaPtr schema = MakeSchema("t", {"a"});
  std::istringstream in("a\n\"oops\n");
  auto r = ReadCsv(in, schema);
  ASSERT_FALSE(r.ok());
}

TEST(CsvTest, NoHeaderMode) {
  SchemaPtr schema = MakeSchema("t", {"a", "b"});
  CsvOptions opts;
  opts.header = false;
  std::istringstream in("1,2\n3,4\n");
  auto r = ReadCsv(in, schema, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2);
}

TEST(CsvTest, CrLfLineEndingsAccepted) {
  SchemaPtr schema = MakeSchema("t", {"a"});
  std::istringstream in("a\r\nv\r\n");
  auto r = ReadCsv(in, schema);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1);
  EXPECT_EQ(r->tuple(0).value(0), Value("v"));
}

// ---------------------------------------------------------------------------
// Confidence CSV
// ---------------------------------------------------------------------------

std::string WriteTempFile(const std::string& name, const std::string& text) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << text;
  return path;
}

/// A relation of `rows` tuples over (a, b), every confidence 0.
Relation TwoColumns(int rows) {
  Relation r(MakeSchema("t", {"a", "b"}));
  for (int i = 0; i < rows; ++i) r.AddRow({"x" + std::to_string(i), "y"});
  return r;
}

TEST(ConfidenceCsvTest, RejectsMalformedConfidenceCsv) {
  Relation r = TwoColumns(2);
  std::string path = WriteTempFile("bad_conf.csv", "a,b\n0.5,abc\n0,0\n");
  EXPECT_EQ(ReadConfidenceCsvFile(path, &r).code(),
            StatusCode::kInvalidArgument);
}

TEST(ConfidenceCsvTest, RejectsConfidenceOutOfRange) {
  Relation r = TwoColumns(2);
  std::string path = WriteTempFile("oob_conf.csv", "a,b\n0,0\n0,1.5\n");
  EXPECT_EQ(ReadConfidenceCsvFile(path, &r).code(),
            StatusCode::kInvalidArgument);
}

TEST(ConfidenceCsvTest, RejectsRowCountMismatch) {
  Relation r = TwoColumns(3);
  std::string fewer = WriteTempFile("short_conf.csv", "a,b\n1,1\n1,1\n");
  EXPECT_EQ(ReadConfidenceCsvFile(fewer, &r).code(),
            StatusCode::kInvalidArgument);
  std::string more =
      WriteTempFile("long_conf.csv", "a,b\n1,1\n1,1\n1,1\n1,1\n");
  EXPECT_EQ(ReadConfidenceCsvFile(more, &r).code(),
            StatusCode::kInvalidArgument);
}

TEST(ConfidenceCsvTest, WriteThenReadRestoresExactDoubles) {
  // Values whose shortest decimal form is long, or that sit one ulp below
  // a threshold: a lossy format would flip a cf >= eta decision.
  const std::vector<double> values = {0.0,
                                      1.0,
                                      0.1,
                                      1.0 / 3.0,
                                      2.0 / 3.0,
                                      0.123456789012345678,
                                      std::nextafter(0.8, 0.0),
                                      std::nextafter(1.0, 0.0),
                                      1e-300,
                                      0.7};
  Relation written = TwoColumns(static_cast<int>(values.size()) / 2);
  for (size_t i = 0; i < values.size(); ++i) {
    written.mutable_tuple(static_cast<TupleId>(i / 2))
        .set_confidence(static_cast<AttributeId>(i % 2), values[i]);
  }
  const std::string path = ::testing::TempDir() + "/roundtrip_conf.csv";
  ASSERT_TRUE(WriteConfidenceCsvFile(path, written).ok());

  Relation read = TwoColumns(written.size());
  Status status = ReadConfidenceCsvFile(path, &read);
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(read.tuple(static_cast<TupleId>(i / 2))
                  .confidence(static_cast<AttributeId>(i % 2)),
              values[i])
        << "value " << i;
  }
}

}  // namespace
}  // namespace data
}  // namespace uniclean
