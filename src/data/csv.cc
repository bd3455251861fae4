#include "data/csv.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <set>
#include <vector>

#include "common/string_util.h"
#include "data/string_pool.h"

namespace uniclean {
namespace data {

namespace {

constexpr char kDelimiter = ',';

bool NeedsQuoting(const std::string& s) {
  return s.find(kDelimiter) != std::string::npos ||
         s.find('"') != std::string::npos ||
         s.find('\n') != std::string::npos ||
         s.find('\r') != std::string::npos;
}

/// How the shared scanner classified one step of input.
enum class CsvStep {
  kContent,       ///< a literal character of the current field
  kEscapedQuote,  ///< "" inside a quoted field: one literal '"'
  kQuoteOpen,     ///< opening quote (no field content)
  kQuoteClose,    ///< closing quote (no field content)
  kDelimiter,     ///< field separator
};

/// The single RFC-4180 quote state machine behind both ParseCsvRecord and
/// ReadCsvRecord, so the two can never disagree on where a quoted field (and
/// hence a logical record) ends. Lenient rule: a quote opens a quoted field
/// only at field *start*; mid-field quotes are literal content.
class CsvScanner {
 public:
  bool in_quotes() const { return in_quotes_; }

  /// Classifies s[i] (peeking s[i+1] for escaped quotes) and advances the
  /// state. Returns the number of characters consumed: 1, or 2 for "".
  size_t Step(const std::string& s, size_t i, CsvStep* step) {
    const char c = s[i];
    if (in_quotes_) {
      if (c == '"') {
        if (i + 1 < s.size() && s[i + 1] == '"') {
          field_empty_ = false;
          *step = CsvStep::kEscapedQuote;
          return 2;
        }
        in_quotes_ = false;
        *step = CsvStep::kQuoteClose;
        return 1;
      }
      field_empty_ = false;
      *step = CsvStep::kContent;
      return 1;
    }
    if (c == '"' && field_empty_) {
      in_quotes_ = true;
      *step = CsvStep::kQuoteOpen;
      return 1;
    }
    if (c == kDelimiter) {
      field_empty_ = true;
      *step = CsvStep::kDelimiter;
      return 1;
    }
    field_empty_ = false;
    *step = CsvStep::kContent;
    return 1;
  }

  /// Advances the state over a whole string, ignoring the content.
  void Scan(const std::string& s) {
    CsvStep step;
    for (size_t i = 0; i < s.size(); i += Step(s, i, &step)) {
    }
  }

 private:
  bool in_quotes_ = false;
  bool field_empty_ = true;
};

/// The one header check: arity, then names compared trimmed — the way
/// InferCsvSchema builds a schema from a header.
Status CheckHeader(const std::vector<std::string_view>& fields,
                   const Schema& schema) {
  if (static_cast<int>(fields.size()) != schema.arity()) {
    return Status::InvalidArgument(
        "CSV header arity mismatch: got " + std::to_string(fields.size()) +
        " columns, schema has " + std::to_string(schema.arity()));
  }
  for (AttributeId a = 0; a < schema.arity(); ++a) {
    const std::string_view got = fields[static_cast<size_t>(a)];
    if (Trim(got) != Trim(schema.attribute_name(a))) {
      return Status::InvalidArgument(
          "CSV header mismatch at column " + std::to_string(a) +
          ": expected '" + schema.attribute_name(a) + "', got '" +
          std::string(got) + "'");
    }
  }
  return Status::OK();
}

/// The one record loop behind every reader: skips blank records, checks
/// the header row (when `header`; then it is required) and every record's
/// arity, and hands each data record's fields to `row(fields, line_no)`.
template <typename RowFn>
Status ForEachRow(std::istream& in, const Schema& schema, bool header,
                  RowFn row) {
  std::string record;
  // Reused across records: `owned` backs the quoted (unescaping) path,
  // `fields` views either the record itself (fast path) or `owned`.
  std::vector<std::string> owned;
  std::vector<std::string_view> fields;
  bool saw_header = !header;
  int line_no = 0;
  int lines_read = 0;
  // Logical records: ReadCsvRecord joins physical lines while a quoted field
  // is open, so values containing newlines round-trip through Write/Read.
  while (ReadCsvRecord(in, &record, &lines_read)) {
    line_no += lines_read;
    if (record.empty()) continue;
    fields.clear();
    if (record.find('"') == std::string::npos) {
      // No quotes: fields are plain delimiter splits, viewed in place — no
      // per-field allocation, no per-character state machine.
      size_t start = 0;
      for (;;) {
        const size_t d = record.find(kDelimiter, start);
        if (d == std::string::npos) {
          fields.emplace_back(record.data() + start, record.size() - start);
          break;
        }
        fields.emplace_back(record.data() + start, d - start);
        start = d + 1;
      }
    } else {
      UC_ASSIGN_OR_RETURN(owned, ParseCsvRecord(record));
      fields.assign(owned.begin(), owned.end());
    }
    if (!saw_header) {
      saw_header = true;
      UC_RETURN_IF_ERROR(CheckHeader(fields, schema));
      continue;
    }
    if (static_cast<int>(fields.size()) != schema.arity()) {
      return Status::InvalidArgument(
          "CSV record arity mismatch at line " + std::to_string(line_no) +
          ": got " + std::to_string(fields.size()) + " columns, expected " +
          std::to_string(schema.arity()));
    }
    UC_RETURN_IF_ERROR(row(fields, line_no));
  }
  if (!saw_header) {
    return Status::InvalidArgument("CSV is empty (header row required)");
  }
  return Status::OK();
}

Result<Tuple> RowToTuple(const std::vector<std::string_view>& fields) {
  Tuple t(static_cast<int>(fields.size()));
  for (size_t a = 0; a < fields.size(); ++a) {
    UC_ASSIGN_OR_RETURN(Value v, ParseCsvCell(fields[a]));
    t.set_value(static_cast<AttributeId>(a), v);
  }
  return t;
}

/// One confidence cell; `buf` gives strtod its terminating NUL.
Result<double> ParseConfidence(std::string_view field, int line_no,
                               std::string* buf) {
  if (field.empty() || field == kNullToken) return 0.0;
  buf->assign(field);
  errno = 0;
  char* end = nullptr;
  const double cf = std::strtod(buf->c_str(), &end);
  // Negated so NaN fails too: every comparison with NaN is false.
  if (end == buf->c_str() || *end != '\0' || errno == ERANGE ||
      !(cf >= 0.0 && cf <= 1.0)) {
    return Status::InvalidArgument("confidence CSV line " +
                                   std::to_string(line_no) + ": '" + *buf +
                                   "' is not a number in [0, 1]");
  }
  return cf;
}

void WriteHeader(std::ostream& out, const Schema& schema) {
  for (AttributeId a = 0; a < schema.arity(); ++a) {
    if (a > 0) out << kDelimiter;
    out << CsvQuote(schema.attribute_name(a));
  }
  out << '\n';
}

}  // namespace

bool ReadCsvRecord(std::istream& in, std::string* record, int* lines_read) {
  record->clear();
  int lines = 0;
  std::string line;
  CsvScanner scanner;
  while (std::getline(in, line)) {
    ++lines;
    if (lines > 1) {
      scanner.Scan("\n");  // the joined newline is content of the open field
      record->push_back('\n');
    }
    // A line with no quote character cannot change the quote state, so the
    // per-character scan is skippable — the common case for machine-written
    // CSV, and a measured win on the engine-warmup path that re-reads the
    // master file.
    const bool has_quote = line.find('"') != std::string::npos;
    if (has_quote || scanner.in_quotes()) {
      scanner.Scan(line);
    }
    // Strip a CRLF's '\r' only outside an open quoted field — inside one it
    // is field *content* (a value holding "\r\n" must round-trip exactly).
    if (!scanner.in_quotes() && !line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    record->append(line);
    if (!scanner.in_quotes()) break;
  }
  if (lines_read != nullptr) *lines_read = lines;
  return lines > 0;
}

Result<std::vector<std::string>> ParseCsvRecord(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  CsvScanner scanner;
  size_t i = 0;
  while (i < line.size()) {
    CsvStep step;
    const size_t at = i;
    i += scanner.Step(line, i, &step);
    switch (step) {
      case CsvStep::kContent:
        field.push_back(line[at]);
        break;
      case CsvStep::kEscapedQuote:
        field.push_back('"');
        break;
      case CsvStep::kDelimiter:
        fields.push_back(std::move(field));
        field.clear();
        break;
      case CsvStep::kQuoteOpen:
      case CsvStep::kQuoteClose:
        break;
    }
  }
  if (scanner.in_quotes()) {
    // An unterminated quote makes ReadCsvRecord slurp physical lines to EOF,
    // so the offending "record" can be the whole rest of the file — echo
    // only its head in the diagnostic.
    constexpr size_t kMaxEcho = 160;
    return Status::Corruption(
        "unterminated quote in CSV record: " +
        (line.size() <= kMaxEcho ? line
                                 : line.substr(0, kMaxEcho) + "... (" +
                                       std::to_string(line.size()) +
                                       " bytes)"));
  }
  fields.push_back(std::move(field));
  return fields;
}

Result<Value> ParseCsvCell(std::string_view field) {
  if (field == kNullToken) return Value::Null();
  UC_ASSIGN_OR_RETURN(ValueId id, StringPool::Global().TryIntern(field));
  return Value::FromId(id);
}

std::string CsvQuote(const std::string& field) {
  if (!NeedsQuoting(field)) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

Result<Relation> ReadCsv(std::istream& in, SchemaPtr schema) {
  Relation relation(schema);
  UC_RETURN_IF_ERROR(ForEachRow(
      in, *schema, /*header=*/true,
      [&](const std::vector<std::string_view>& fields, int) -> Status {
        UC_ASSIGN_OR_RETURN(Tuple t, RowToTuple(fields));
        relation.AddTuple(std::move(t));
        return Status::OK();
      }));
  return relation;
}

Result<Relation> ReadCsvFile(const std::string& path, SchemaPtr schema) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open CSV file: " + path);
  }
  return ReadCsv(in, std::move(schema));
}

Result<std::vector<Tuple>> ReadCsvRows(std::istream& in, const Schema& schema,
                                       bool header) {
  std::vector<Tuple> rows;
  UC_RETURN_IF_ERROR(ForEachRow(
      in, schema, header,
      [&](const std::vector<std::string_view>& fields, int) -> Status {
        UC_ASSIGN_OR_RETURN(Tuple t, RowToTuple(fields));
        rows.push_back(std::move(t));
        return Status::OK();
      }));
  return rows;
}

Status WriteCsv(std::ostream& out, const Relation& relation) {
  const Schema& schema = relation.schema();
  WriteHeader(out, schema);
  for (const Tuple& t : relation.tuples()) {
    for (int a = 0; a < schema.arity(); ++a) {
      if (a > 0) out << kDelimiter;
      const Value& v = t.value(a);
      if (v.is_null()) {
        out << kNullToken;
      } else {
        out << CsvQuote(v.str());
      }
    }
    out << '\n';
  }
  if (!out.good()) return Status::Internal("CSV write failed");
  return Status::OK();
}

Status WriteCsvFile(const std::string& path, const Relation& relation) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::Internal("cannot open CSV file for write: " + path);
  }
  return WriteCsv(out, relation);
}

Result<SchemaPtr> InferCsvSchema(const std::string& path,
                                 const std::string& relation_name) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open CSV file: " + path);
  }
  std::string header;
  do {
    if (!ReadCsvRecord(in, &header)) {
      return Status::InvalidArgument("CSV is empty (header row required): " +
                                     path);
    }
  } while (header.empty());
  UC_ASSIGN_OR_RETURN(std::vector<std::string> names, ParseCsvRecord(header));
  std::set<std::string> seen;
  for (std::string& name : names) {
    name = std::string(Trim(name));
    if (!seen.insert(name).second) {
      return Status::InvalidArgument("CSV header repeats the column name '" +
                                     name + "': " + path);
    }
  }
  return MakeSchema(relation_name, std::move(names));
}

Status ReadConfidenceCsv(std::istream& in, Relation* relation) {
  UC_CHECK(relation != nullptr);
  TupleId row = 0;
  std::string buf;
  UC_RETURN_IF_ERROR(ForEachRow(
      in, relation->schema(), /*header=*/true,
      [&](const std::vector<std::string_view>& fields,
          int line_no) -> Status {
        if (row >= relation->size()) {
          return Status::InvalidArgument(
              "confidence CSV has more rows than the data relation (" +
              std::to_string(relation->size()) + ")");
        }
        Tuple& t = relation->mutable_tuple(row++);
        for (size_t a = 0; a < fields.size(); ++a) {
          UC_ASSIGN_OR_RETURN(double cf,
                              ParseConfidence(fields[a], line_no, &buf));
          t.set_confidence(static_cast<AttributeId>(a), cf);
        }
        return Status::OK();
      }));
  if (row != relation->size()) {
    return Status::InvalidArgument(
        "confidence CSV row count mismatch: expected " +
        std::to_string(relation->size()) + ", got " + std::to_string(row));
  }
  return Status::OK();
}

Status ReadConfidenceCsvFile(const std::string& path, Relation* relation) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open confidence CSV: " + path);
  }
  return ReadConfidenceCsv(in, relation);
}

Status WriteConfidenceCsv(std::ostream& out, const Relation& relation) {
  const Schema& schema = relation.schema();
  WriteHeader(out, schema);
  // Shortest round-trip formatting: re-reading the file restores the exact
  // confidences, so cf >= η decisions survive a save/load cycle.
  char buf[32];
  for (TupleId t = 0; t < relation.size(); ++t) {
    for (AttributeId a = 0; a < schema.arity(); ++a) {
      if (a > 0) out << kDelimiter;
      auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf),
                                     relation.tuple(t).confidence(a));
      UC_CHECK(ec == std::errc());
      out.write(buf, static_cast<std::streamsize>(ptr - buf));
    }
    out << '\n';
  }
  if (!out.good()) return Status::Internal("confidence CSV write failed");
  return Status::OK();
}

Status WriteConfidenceCsvFile(const std::string& path,
                              const Relation& relation) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::Internal("cannot open confidence CSV for write: " + path);
  }
  return WriteConfidenceCsv(out, relation);
}

}  // namespace data
}  // namespace uniclean
