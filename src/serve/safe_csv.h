// The names perfbench calls for the CSV that unicleand reads off the wire.
// These are forwarders with no parsing of their own: each wraps the text in
// a stream and calls data/csv.h, the only CSV reader, which the daemon
// calls too — so the benchmark parses exactly as the daemon does, with the
// error contract documented there (Corruption for malformed quoting,
// InvalidArgument for header/arity/empty/confidence faults, OutOfRange on
// StringPool exhaustion, which the wire reports as ResourceExhausted).
// Library code calls data:: directly; this header only keeps perfbench's
// sources building unedited until the benchmark moves to data::.

#ifndef UNICLEAN_SERVE_SAFE_CSV_H_
#define UNICLEAN_SERVE_SAFE_CSV_H_

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "data/csv.h"

namespace uniclean {
namespace serve {

/// data::ReadCsv over `csv_text`.
inline Result<data::Relation> ParseRelationCsv(const std::string& csv_text,
                                               data::SchemaPtr schema) {
  std::istringstream in(csv_text);
  return data::ReadCsv(in, std::move(schema));
}

/// data::ReadCsvRows over `csv_text`.
inline Result<std::vector<data::Tuple>> ParseTupleRows(
    const std::string& csv_text, const data::SchemaPtr& schema,
    bool expect_header) {
  std::istringstream in(csv_text);
  return data::ReadCsvRows(in, *schema, expect_header);
}

/// data::ReadConfidenceCsv over `csv_text`.
inline Status ApplyConfidenceCsv(const std::string& csv_text,
                                 data::Relation* relation) {
  std::istringstream in(csv_text);
  return data::ReadConfidenceCsv(in, relation);
}

}  // namespace serve
}  // namespace uniclean

#endif  // UNICLEAN_SERVE_SAFE_CSV_H_
