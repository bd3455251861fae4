// Strict number parsing for the command-line tools' flags: the whole value
// must be consumed, so `--eta abc` or `--delta1 7x` is an error the tool
// reports (and exits on) instead of a silent 0 or 7.

#ifndef UNICLEAN_TOOLS_FLAG_PARSE_H_
#define UNICLEAN_TOOLS_FLAG_PARSE_H_

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

namespace uniclean {
namespace tools {

/// Parses `v` as a double into `*out`; on failure prints
/// "<flag> expects a number, got '<v>'" to stderr and returns false.
inline bool ParseDouble(const char* flag, const char* v, double* out) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s expects a number, got '%s'\n", flag, v);
    return false;
  }
  *out = parsed;
  return true;
}

/// Parses `v` as an int into `*out`; on failure prints
/// "<flag> expects an integer, got '<v>'" to stderr and returns false.
inline bool ParseInt(const char* flag, const char* v, int* out) {
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || parsed < INT_MIN ||
      parsed > INT_MAX) {
    std::fprintf(stderr, "%s expects an integer, got '%s'\n", flag, v);
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

}  // namespace tools
}  // namespace uniclean

#endif  // UNICLEAN_TOOLS_FLAG_PARSE_H_
