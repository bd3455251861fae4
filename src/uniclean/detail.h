// Private helpers shared by the façade translation units (engine.cc,
// session.cc). Not part of the public API.

#ifndef UNICLEAN_UNICLEAN_DETAIL_H_
#define UNICLEAN_UNICLEAN_DETAIL_H_

#include <fstream>
#include <sstream>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "data/schema.h"

namespace uniclean {
namespace internal {

inline Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

inline bool SchemaMatches(const data::Schema& a, const data::Schema& b) {
  if (a.arity() != b.arity()) return false;
  for (data::AttributeId i = 0; i < a.arity(); ++i) {
    if (a.attribute_name(i) != b.attribute_name(i)) return false;
  }
  return true;
}

inline std::string DescribeSchema(const data::Schema& schema) {
  std::string out = schema.relation_name() + "(";
  for (data::AttributeId i = 0; i < schema.arity(); ++i) {
    if (i > 0) out += ", ";
    out += schema.attribute_name(i);
  }
  out += ")";
  return out;
}

/// Rebuilds `status` with its message prefixed — Status is immutable.
inline Status Annotate(const Status& status, const std::string& prefix) {
  const std::string message = prefix + status.message();
  switch (status.code()) {
    case StatusCode::kOk:
      return status;
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kCorruption:
      return Status::Corruption(message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(message);
    case StatusCode::kInternal:
      return Status::Internal(message);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case StatusCode::kCancelled:
      return Status::Cancelled(message);
    case StatusCode::kUnavailable:
      return Status::Unavailable(message);
    case StatusCode::kDataLoss:
      return Status::DataLoss(message);
  }
  return Status::Internal(message);
}

}  // namespace internal
}  // namespace uniclean

#endif  // UNICLEAN_UNICLEAN_DETAIL_H_
