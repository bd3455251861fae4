#include "similarity/predicate.h"

#include <algorithm>
#include <cstdio>

#include "similarity/metrics.h"

namespace uniclean {
namespace similarity {

const char* PredicateKindToString(PredicateKind kind) {
  switch (kind) {
    case PredicateKind::kEquals:
      return "equals";
    case PredicateKind::kEditDistance:
      return "edit";
    case PredicateKind::kJaroWinkler:
      return "jaro_winkler";
    case PredicateKind::kQGramJaccard:
      return "qgram_jaccard";
  }
  return "unknown";
}

bool SimilarityPredicate::Evaluate(std::string_view a,
                                   std::string_view b) const {
  switch (kind_) {
    case PredicateKind::kEquals:
      return a == b;
    case PredicateKind::kEditDistance: {
      int k = static_cast<int>(threshold_);
      // Length pre-filter: the distance is at least the length gap, so
      // obviously-distant pairs never reach the banded DP.
      size_t lo = std::min(a.size(), b.size());
      size_t hi = std::max(a.size(), b.size());
      if (hi - lo > static_cast<size_t>(k)) return false;
      return BoundedEditDistance(a, b, k) <= k;
    }
    case PredicateKind::kJaroWinkler: {
      // Multiset pre-filter. Jaro pairs equal characters, so its m matches
      // are at most the shared multiset, sum over c of min(#a(c), #b(c)),
      // and with no transpositions Jaro (m/|a| + m/|b| + 1) / 3 rises with
      // m. The Winkler prefix p (at most 4 characters) is exact, and
      // j + 0.1 * p * (1 - j) rises with j. Reject only when this upper
      // bound misses the threshold by more than rounding could explain.
      if (!a.empty() && !b.empty()) {
        int counts[256] = {};
        for (char c : a) ++counts[static_cast<unsigned char>(c)];
        int shared = 0;
        for (char c : b) {
          int& left = counts[static_cast<unsigned char>(c)];
          if (left > 0) {
            --left;
            ++shared;
          }
        }
        double ub = 0.0;  // nothing shared: Jaro and the prefix are 0
        if (shared > 0) {
          const double m = shared;
          const double jaro = (m / static_cast<double>(a.size()) +
                               m / static_cast<double>(b.size()) + 1.0) /
                              3.0;
          const size_t limit = std::min({a.size(), b.size(), size_t{4}});
          size_t prefix = 0;
          while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
          ub = jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
        }
        if (ub + 1e-9 < threshold_) return false;
      }
      return JaroWinklerSimilarity(a, b) >= threshold_;
    }
    case PredicateKind::kQGramJaccard:
      return QGramJaccard(a, b, qgram_size_) >= threshold_;
  }
  return false;
}

std::string SimilarityPredicate::ToString() const {
  char buf[64];
  switch (kind_) {
    case PredicateKind::kEquals:
      return "=";
    case PredicateKind::kEditDistance:
      std::snprintf(buf, sizeof(buf), "edit<=%d", static_cast<int>(threshold_));
      return buf;
    case PredicateKind::kJaroWinkler:
      std::snprintf(buf, sizeof(buf), "jw>=%.2f", threshold_);
      return buf;
    case PredicateKind::kQGramJaccard:
      std::snprintf(buf, sizeof(buf), "qgram%d>=%.2f", qgram_size_,
                    threshold_);
      return buf;
  }
  return "?";
}

}  // namespace similarity
}  // namespace uniclean
