// CSV import/export for relations and per-cell confidences: the one CSV
// reader behind every input path — CLI files, the master relation, RELOAD
// and unicleand's wire bodies. Quoting follows RFC 4180 with ',' as the
// delimiter; a cell holding exactly kNullToken is SQL null.
//
// Every reader shares one record loop, so the same bytes fail the same way
// through a file and through a wire CLEAN:
//  * malformed quoting (an unterminated quoted field) -> Corruption;
//  * a header that does not match the schema (names compared trimmed), a
//    record of the wrong arity, empty input where a header row is required,
//    or a confidence that is not a number in [0, 1] -> InvalidArgument;
//  * StringPool id-space exhaustion -> OutOfRange ("StringPool: ..."),
//    which the wire reports as ResourceExhausted;
//  * a file that cannot be opened -> NotFound.
// Cells are interned through StringPool::TryIntern, so no input reaches a
// CHECK-abort; a cell already in the pool is found without a lock, so
// concurrent readers (the daemon's workers) do not serialize on it. Blank
// records are skipped; a header-only input is an empty relation.

#ifndef UNICLEAN_DATA_CSV_H_
#define UNICLEAN_DATA_CSV_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "data/relation.h"

namespace uniclean {
namespace data {

/// The cell text of SQL null, read and written by every CSV in the repo.
inline constexpr std::string_view kNullToken = "\\N";

/// RFC-4180 field quoting: wraps `field` in double quotes (doubling embedded
/// quotes) when it contains a comma, a quote, a newline, or a carriage
/// return; returns it unchanged otherwise. Exposed so other CSV emitters
/// (e.g. the FixJournal) quote identically to WriteCsv.
std::string CsvQuote(std::string_view field);

/// Appends CsvQuote(field) to `*out` without a temporary string.
void AppendCsvQuoted(std::string* out, std::string_view field);

/// Parses a relation with the given schema from a stream. The first record
/// is the header row, validated against the schema.
Result<Relation> ReadCsv(std::istream& in, SchemaPtr schema);

/// Parses a relation from a file path.
Result<Relation> ReadCsvFile(const std::string& path, SchemaPtr schema);

/// Parses rows shaped like `schema` into tuples, with ReadCsv's cell
/// semantics. With `header` the first record is a header row, required and
/// validated against the schema (DELTA inserts); without it every record
/// is a row (DELTA update rows, index-aligned with their id list).
Result<std::vector<Tuple>> ReadCsvRows(std::istream& in, const Schema& schema,
                                       bool header);

/// Writes a relation, header row first, to a stream.
Status WriteCsv(std::ostream& out, const Relation& relation);

/// Writes a relation to a file path.
Status WriteCsvFile(const std::string& path, const Relation& relation);

/// Reads only the header row (the first non-blank record) of a CSV file
/// and builds a schema from it; names are trimmed. Fails with
/// InvalidArgument on an empty file or a repeated name.
Result<SchemaPtr> InferCsvSchema(const std::string& path,
                                 const std::string& relation_name);

/// Loads per-cell confidences into `*relation` from a CSV with the same
/// shape: a header row naming the relation's attributes, then one row per
/// tuple. Empty cells and nulls count as 0. Any other cell must be a number
/// in [0, 1] as std::strtod reads it in the C locale (the process never
/// changes locale): strtod must consume the whole cell without ERANGE. So a
/// leading space, a '+' and hex ("0x1p-1" is 0.5) are accepted; a trailing
/// space, inf, nan and a value that underflows (ERANGE: subnormal, or below
/// DBL_MIN before rounding) are not. The accepted set and every value are
/// strtod's; the common decimal cell is parsed by std::from_chars, which
/// gives the same bits without a copy.
Status ReadConfidenceCsv(std::istream& in, Relation* relation);

/// ReadConfidenceCsv over a file path.
Status ReadConfidenceCsvFile(const std::string& path, Relation* relation);

/// Writes the per-cell confidences of `relation` in the shape
/// ReadConfidenceCsv consumes.
Status WriteConfidenceCsv(std::ostream& out, const Relation& relation);
Status WriteConfidenceCsvFile(const std::string& path,
                              const Relation& relation);

}  // namespace data
}  // namespace uniclean

#endif  // UNICLEAN_DATA_CSV_H_
