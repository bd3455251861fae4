#include "similarity/metrics.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"

namespace uniclean {
namespace similarity {

int EditDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  if (m == 0) return static_cast<int>(n);
  std::vector<int> prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

int BoundedEditDistance(std::string_view a, std::string_view b, int k) {
  UC_CHECK_GE(k, 0);
  // Strip the common prefix and suffix: they contribute 0 to the distance,
  // and most near-matches differ in a short middle section, so the banded DP
  // then runs on a fraction of the characters.
  size_t prefix = 0;
  const size_t max_common = std::min(a.size(), b.size());
  while (prefix < max_common && a[prefix] == b[prefix]) ++prefix;
  a.remove_prefix(prefix);
  b.remove_prefix(prefix);
  size_t suffix = 0;
  const size_t max_suffix = std::min(a.size(), b.size());
  while (suffix < max_suffix &&
         a[a.size() - 1 - suffix] == b[b.size() - 1 - suffix]) {
    ++suffix;
  }
  a.remove_suffix(suffix);
  b.remove_suffix(suffix);
  if (a.size() < b.size()) std::swap(a, b);
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  if (n - m > k) return k + 1;
  if (m == 0) return n;  // n <= k here
  // Banded DP: only cells with |i - j| <= k can be <= k.
  const int kInf = k + 1;
  std::vector<int> prev(static_cast<size_t>(m) + 1, kInf);
  std::vector<int> cur(static_cast<size_t>(m) + 1, kInf);
  for (int j = 0; j <= std::min(m, k); ++j) prev[static_cast<size_t>(j)] = j;
  for (int i = 1; i <= n; ++i) {
    int lo = std::max(1, i - k);
    int hi = std::min(m, i + k);
    if (lo > hi) return k + 1;
    std::fill(cur.begin(), cur.end(), kInf);
    if (i <= k) cur[0] = i;
    int row_min = kInf;
    for (int j = lo; j <= hi; ++j) {
      size_t sj = static_cast<size_t>(j);
      int sub = prev[sj - 1] + (a[static_cast<size_t>(i - 1)] ==
                                        b[sj - 1]
                                    ? 0
                                    : 1);
      int del = prev[sj] + 1;   // may be kInf (outside band)
      int ins = cur[sj - 1] + 1;
      int v = std::min({sub, del, ins});
      if (v > kInf) v = kInf;
      cur[sj] = v;
      row_min = std::min(row_min, v);
    }
    if (row_min > k) return k + 1;
    std::swap(prev, cur);
  }
  return std::min(prev[static_cast<size_t>(m)], kInf);
}

int HammingDistance(std::string_view a, std::string_view b) {
  size_t shared = std::min(a.size(), b.size());
  int d = static_cast<int>(std::max(a.size(), b.size()) - shared);
  for (size_t i = 0; i < shared; ++i) {
    if (a[i] != b[i]) ++d;
  }
  return d;
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  const int window = std::max(0, std::max(n, m) / 2 - 1);
  // Thread-local scratch instead of two heap-allocated vector<bool> per
  // call: the allocations dominated this function's cost. Byte flags beat
  // bit-packing here.
  static thread_local std::vector<unsigned char> a_matched;
  static thread_local std::vector<unsigned char> b_matched;
  a_matched.assign(static_cast<size_t>(n), 0);
  b_matched.assign(static_cast<size_t>(m), 0);
  int matches = 0;
  for (int i = 0; i < n; ++i) {
    int lo = std::max(0, i - window);
    int hi = std::min(m - 1, i + window);
    for (int j = lo; j <= hi; ++j) {
      if (b_matched[static_cast<size_t>(j)]) continue;
      if (a[static_cast<size_t>(i)] != b[static_cast<size_t>(j)]) continue;
      a_matched[static_cast<size_t>(i)] = true;
      b_matched[static_cast<size_t>(j)] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among matched characters.
  int transpositions = 0;
  int j = 0;
  for (int i = 0; i < n; ++i) {
    if (!a_matched[static_cast<size_t>(i)]) continue;
    while (!b_matched[static_cast<size_t>(j)]) ++j;
    if (a[static_cast<size_t>(i)] != b[static_cast<size_t>(j)]) {
      ++transpositions;
    }
    ++j;
  }
  double md = matches;
  return (md / n + md / m + (md - transpositions / 2.0) / md) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = JaroSimilarity(a, b);
  int prefix = 0;
  size_t limit = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  while (static_cast<size_t>(prefix) < limit &&
         a[static_cast<size_t>(prefix)] == b[static_cast<size_t>(prefix)]) {
    ++prefix;
  }
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

std::vector<std::string> QGramProfile(std::string_view s, int q) {
  UC_CHECK_GE(q, 1);
  std::string padded;
  padded.reserve(s.size() + 2 * static_cast<size_t>(q - 1));
  padded.append(static_cast<size_t>(q - 1), '#');
  padded.append(s);
  padded.append(static_cast<size_t>(q - 1), '#');
  std::vector<std::string> grams;
  if (padded.size() < static_cast<size_t>(q)) return grams;
  for (size_t i = 0; i + static_cast<size_t>(q) <= padded.size(); ++i) {
    grams.push_back(padded.substr(i, static_cast<size_t>(q)));
  }
  std::sort(grams.begin(), grams.end());
  return grams;
}

void QGramIdProfile(std::string_view s, int q, std::vector<uint64_t>* grams) {
  UC_CHECK_GE(q, 1);
  UC_CHECK_LE(q, 8) << "QGramIdProfile: gram does not fit a uint64 id";
  grams->clear();
  // A profile of the '#'-padded string has |s| + q - 1 grams; walk a sliding
  // window over the virtual padded text instead of materializing it. Bytes
  // pack big-endian, so uint64 comparison of same-q ids is exactly the
  // lexicographic byte comparison QGramProfile's std::string sort performs.
  const size_t pad = static_cast<size_t>(q - 1);
  const size_t padded_len = s.size() + 2 * pad;
  if (padded_len < static_cast<size_t>(q)) return;
  grams->reserve(padded_len - static_cast<size_t>(q) + 1);
  auto padded_at = [&](size_t i) -> unsigned char {
    return i < pad || i >= pad + s.size()
               ? static_cast<unsigned char>('#')
               : static_cast<unsigned char>(s[i - pad]);
  };
  uint64_t id = 0;
  const uint64_t mask = q == 8 ? ~uint64_t{0}
                               : ((uint64_t{1} << (8 * q)) - 1);
  for (size_t i = 0; i < padded_len; ++i) {
    id = ((id << 8) | padded_at(i)) & mask;
    if (i + 1 >= static_cast<size_t>(q)) grams->push_back(id);
  }
  std::sort(grams->begin(), grams->end());
}

namespace {

/// Shared Jaccard tail: dedup both sorted profiles, then a sorted-merge
/// intersection count.
template <typename T>
double SortedProfileJaccard(std::vector<T>& ga, std::vector<T>& gb) {
  ga.erase(std::unique(ga.begin(), ga.end()), ga.end());
  gb.erase(std::unique(gb.begin(), gb.end()), gb.end());
  if (ga.empty() && gb.empty()) return 1.0;
  size_t i = 0;
  size_t j = 0;
  size_t inter = 0;
  while (i < ga.size() && j < gb.size()) {
    if (ga[i] == gb[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (ga[i] < gb[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = ga.size() + gb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace

double QGramJaccard(std::string_view a, std::string_view b, int q) {
  UC_CHECK_GE(q, 1);
  if (q <= 8) {
    // Integer-id profiles in thread-local scratch: no per-evaluation
    // vector<std::string> of substrings (this was the pipeline's top
    // allocation-churn item). thread_local keeps concurrent Session runs
    // independent.
    static thread_local std::vector<uint64_t> ga;
    static thread_local std::vector<uint64_t> gb;
    QGramIdProfile(a, q, &ga);
    QGramIdProfile(b, q, &gb);
    return SortedProfileJaccard(ga, gb);
  }
  std::vector<std::string> ga = QGramProfile(a, q);
  std::vector<std::string> gb = QGramProfile(b, q);
  return SortedProfileJaccard(ga, gb);
}

int LongestCommonSubstring(std::string_view a, std::string_view b) {
  if (a.empty() || b.empty()) return 0;
  std::vector<int> prev(b.size() + 1, 0), cur(b.size() + 1, 0);
  int best = 0;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      if (a[i - 1] == b[j - 1]) {
        cur[j] = prev[j - 1] + 1;
        best = std::max(best, cur[j]);
      } else {
        cur[j] = 0;
      }
    }
    std::swap(prev, cur);
  }
  return best;
}

double NormalizedEditDistance(std::string_view a, std::string_view b) {
  size_t denom = std::max(a.size(), b.size());
  if (denom == 0) return 0.0;
  return static_cast<double>(EditDistance(a, b)) / static_cast<double>(denom);
}

}  // namespace similarity
}  // namespace uniclean
