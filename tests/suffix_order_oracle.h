// Brute-force oracle for GeneralizedSuffixArray::suffix_order(): sorts every
// suffix of the concatenated text by direct comparison. Quadratic; for small
// corpora in tests only.

#ifndef UNICLEAN_TESTS_SUFFIX_ORDER_ORACLE_H_
#define UNICLEAN_TESTS_SUFFIX_ORDER_ORACLE_H_

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace uniclean {

/// The text is each string followed by its own separator; a separator
/// (0, id) sorts before every byte (1, c) and separators sort by id.
inline std::vector<int> BruteForceSuffixOrder(
    const std::vector<std::string>& strings) {
  std::vector<std::pair<int, int>> text;
  for (size_t id = 0; id < strings.size(); ++id) {
    for (char c : strings[id]) {
      text.emplace_back(1, static_cast<unsigned char>(c));
    }
    text.emplace_back(0, static_cast<int>(id));
  }
  std::vector<int> order(text.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&text](int a, int b) {
    return std::lexicographical_compare(text.begin() + a, text.end(),
                                        text.begin() + b, text.end());
  });
  return order;
}

}  // namespace uniclean

#endif  // UNICLEAN_TESTS_SUFFIX_ORDER_ORACLE_H_
