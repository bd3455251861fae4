#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "similarity/metrics.h"
#include "similarity/predicate.h"

namespace uniclean {
namespace similarity {
namespace {

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0);
  EXPECT_EQ(EditDistance("abc", ""), 3);
  EXPECT_EQ(EditDistance("", "abc"), 3);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2);
  EXPECT_EQ(EditDistance("same", "same"), 0);
  EXPECT_EQ(EditDistance("Bob", "Robert"), 4);
}

TEST(EditDistanceTest, SymmetryOnRandomStrings) {
  Rng rng(101);
  for (int i = 0; i < 200; ++i) {
    std::string a = rng.RandomWord(rng.Index(12));
    std::string b = rng.RandomWord(rng.Index(12));
    EXPECT_EQ(EditDistance(a, b), EditDistance(b, a));
  }
}

TEST(EditDistanceTest, TriangleInequalityOnRandomStrings) {
  Rng rng(102);
  for (int i = 0; i < 200; ++i) {
    std::string a = rng.RandomWord(rng.Index(10));
    std::string b = rng.RandomWord(rng.Index(10));
    std::string c = rng.RandomWord(rng.Index(10));
    EXPECT_LE(EditDistance(a, c), EditDistance(a, b) + EditDistance(b, c));
  }
}

TEST(EditDistanceTest, BoundedMatchesFullWhenWithinBound) {
  Rng rng(103);
  for (int i = 0; i < 500; ++i) {
    std::string a = rng.RandomWord(1 + rng.Index(14));
    std::string b = rng.RandomWord(1 + rng.Index(14));
    int full = EditDistance(a, b);
    for (int k : {0, 1, 2, 3, 8, 20}) {
      int bounded = BoundedEditDistance(a, b, k);
      if (full <= k) {
        EXPECT_EQ(bounded, full) << a << " vs " << b << " k=" << k;
      } else {
        EXPECT_GT(bounded, k) << a << " vs " << b << " k=" << k;
      }
    }
  }
}

TEST(EditDistanceTest, BoundedHandlesEmptyAndLengthGap) {
  EXPECT_EQ(BoundedEditDistance("", "", 0), 0);
  EXPECT_EQ(BoundedEditDistance("abc", "", 3), 3);
  EXPECT_GT(BoundedEditDistance("abcdef", "", 3), 3);
  EXPECT_GT(BoundedEditDistance("aaaaaaaa", "a", 2), 2);
}

TEST(HammingDistanceTest, KnownValues) {
  EXPECT_EQ(HammingDistance("karolin", "kathrin"), 3);
  EXPECT_EQ(HammingDistance("abc", "abc"), 0);
  EXPECT_EQ(HammingDistance("abc", "abcd"), 1);
  EXPECT_EQ(HammingDistance("", "xy"), 2);
}

TEST(JaroTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.944444, 1e-5);
  EXPECT_NEAR(JaroSimilarity("DIXON", "DICKSONX"), 0.766667, 1e-5);
}

/// Textbook Jaro with per-call allocations — the reference the scratch-buffer
/// implementation must match exactly.
double ReferenceJaro(const std::string& a, const std::string& b) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  const int window = std::max(0, std::max(n, m) / 2 - 1);
  std::vector<bool> am(static_cast<size_t>(n)), bm(static_cast<size_t>(m));
  int matches = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = std::max(0, i - window); j <= std::min(m - 1, i + window);
         ++j) {
      if (bm[static_cast<size_t>(j)] ||
          a[static_cast<size_t>(i)] != b[static_cast<size_t>(j)]) {
        continue;
      }
      am[static_cast<size_t>(i)] = bm[static_cast<size_t>(j)] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  int transpositions = 0;
  int j = 0;
  for (int i = 0; i < n; ++i) {
    if (!am[static_cast<size_t>(i)]) continue;
    while (!bm[static_cast<size_t>(j)]) ++j;
    if (a[static_cast<size_t>(i)] != b[static_cast<size_t>(j)]) {
      ++transpositions;
    }
    ++j;
  }
  double md = matches;
  return (md / n + md / m + (md - transpositions / 2.0) / md) / 3.0;
}

TEST(JaroTest, DisjointAlphabetsScoreZero) {
  // The common-character pre-reject path must agree with the full scan.
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("aaaa", "bbbbbbbb"), 0.0);
  // Strings that share characters bypass the pre-reject and must agree with
  // the reference — including when the only unique shared character ('a')
  // sits outside the match window.
  EXPECT_DOUBLE_EQ(JaroSimilarity("a_______", "_______a"),
                   ReferenceJaro("a_______", "_______a"));
  EXPECT_DOUBLE_EQ(JaroSimilarity("abcdefgh", "hgfedcba"),
                   ReferenceJaro("abcdefgh", "hgfedcba"));
}

TEST(JaroTest, MatchesReferenceOnRandomStrings) {
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    std::string a = rng.RandomWord(rng.Index(12));
    std::string b = rng.RandomWord(rng.Index(12));
    EXPECT_DOUBLE_EQ(JaroSimilarity(a, b), ReferenceJaro(a, b))
        << "a='" << a << "' b='" << b << "'";
  }
}

TEST(JaroWinklerTest, BoostsCommonPrefix) {
  double jaro = JaroSimilarity("MARTHA", "MARHTA");
  double jw = JaroWinklerSimilarity("MARTHA", "MARHTA");
  EXPECT_GT(jw, jaro);
  EXPECT_NEAR(jw, 0.961111, 1e-5);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("abc", "abc"), 1.0);
}

TEST(JaroWinklerTest, BoundedInUnitInterval) {
  Rng rng(104);
  for (int i = 0; i < 300; ++i) {
    std::string a = rng.RandomWord(rng.Index(10));
    std::string b = rng.RandomWord(rng.Index(10));
    double s = JaroWinklerSimilarity(a, b);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
    EXPECT_DOUBLE_EQ(JaroWinklerSimilarity(a, a), a.empty() ? 1.0 : 1.0);
  }
}

TEST(QGramTest, ProfilePadsAndSorts) {
  auto grams = QGramProfile("ab", 2);
  // padded: #ab# -> {#a, ab, b#}
  EXPECT_EQ(grams, (std::vector<std::string>{"#a", "ab", "b#"}));
}

TEST(QGramTest, JaccardBasics) {
  EXPECT_DOUBLE_EQ(QGramJaccard("", "", 2), 1.0);
  EXPECT_DOUBLE_EQ(QGramJaccard("abc", "abc", 2), 1.0);
  double s = QGramJaccard("night", "nacht", 2);
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1.0);
  EXPECT_DOUBLE_EQ(QGramJaccard("ab", "xy", 2), 0.0);
}

TEST(QGramTest, IdProfileMatchesStringProfile) {
  // The interned-id profile must be the string profile, gram for gram:
  // same multiset, same (lexicographic == big-endian-packed) order.
  Rng rng(301);
  std::vector<uint64_t> ids;
  for (int q : {1, 2, 3, 5, 8}) {
    for (int i = 0; i < 100; ++i) {
      std::string s = rng.RandomWord(rng.Index(15));
      std::vector<std::string> strings = QGramProfile(s, q);
      QGramIdProfile(s, q, &ids);
      ASSERT_EQ(ids.size(), strings.size()) << "q=" << q << " s=" << s;
      for (size_t g = 0; g < ids.size(); ++g) {
        uint64_t packed = 0;
        for (char c : strings[g]) {
          packed = (packed << 8) | static_cast<unsigned char>(c);
        }
        EXPECT_EQ(ids[g], packed) << "q=" << q << " s=" << s << " gram " << g;
      }
    }
  }
}

TEST(QGramTest, JaccardParityWithStringReference) {
  // QGramJaccard runs on interned integer grams for q <= 8; pin it to a
  // from-scratch string-profile reference implementation.
  auto reference = [](std::string_view a, std::string_view b, int q) {
    std::vector<std::string> ga = QGramProfile(a, q);
    std::vector<std::string> gb = QGramProfile(b, q);
    ga.erase(std::unique(ga.begin(), ga.end()), ga.end());
    gb.erase(std::unique(gb.begin(), gb.end()), gb.end());
    if (ga.empty() && gb.empty()) return 1.0;
    std::vector<std::string> inter;
    std::set_intersection(ga.begin(), ga.end(), gb.begin(), gb.end(),
                          std::back_inserter(inter));
    size_t uni = ga.size() + gb.size() - inter.size();
    return uni == 0 ? 1.0
                    : static_cast<double>(inter.size()) /
                          static_cast<double>(uni);
  };
  Rng rng(302);
  for (int q : {1, 2, 3, 4, 8}) {
    for (int i = 0; i < 200; ++i) {
      std::string a = rng.RandomWord(rng.Index(12));
      std::string b = rng.RandomWord(rng.Index(12));
      EXPECT_DOUBLE_EQ(QGramJaccard(a, b, q), reference(a, b, q))
          << "q=" << q << " a=" << a << " b=" << b;
    }
  }
}

TEST(LcsTest, KnownValues) {
  EXPECT_EQ(LongestCommonSubstring("", "abc"), 0);
  EXPECT_EQ(LongestCommonSubstring("abc", "abc"), 3);
  EXPECT_EQ(LongestCommonSubstring("xabcy", "zabcw"), 3);
  EXPECT_EQ(LongestCommonSubstring("abcdef", "zcdemn"), 3);  // "cde"
  EXPECT_EQ(LongestCommonSubstring("ab", "ba"), 1);
}

TEST(LcsTest, BoundedByShorterString) {
  Rng rng(105);
  for (int i = 0; i < 200; ++i) {
    std::string a = rng.RandomWord(rng.Index(15));
    std::string b = rng.RandomWord(rng.Index(15));
    int lcs = LongestCommonSubstring(a, b);
    EXPECT_LE(lcs, static_cast<int>(std::min(a.size(), b.size())));
    EXPECT_GE(lcs, 0);
    EXPECT_EQ(lcs, LongestCommonSubstring(b, a));
  }
}

TEST(NormalizedEditDistanceTest, UnitIntervalAndLengthAware) {
  EXPECT_DOUBLE_EQ(NormalizedEditDistance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedEditDistance("abc", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedEditDistance("a", "b"), 1.0);
  // §3.1: longer strings with 1-char difference are closer than shorter ones.
  double long_pair = NormalizedEditDistance("abcdefghij", "abcdefghiX");
  double short_pair = NormalizedEditDistance("ab", "aX");
  EXPECT_LT(long_pair, short_pair);
}

TEST(PredicateTest, EqualsPredicate) {
  auto p = SimilarityPredicate::Equals();
  EXPECT_TRUE(p.is_equality());
  EXPECT_TRUE(p.Evaluate("x", "x"));
  EXPECT_FALSE(p.Evaluate("x", "y"));
  EXPECT_EQ(p.ToString(), "=");
}

TEST(PredicateTest, EditPredicate) {
  auto p = SimilarityPredicate::Edit(2);
  EXPECT_FALSE(p.is_equality());
  EXPECT_TRUE(p.Evaluate("Mark", "Marc"));
  EXPECT_TRUE(p.Evaluate("Mark", "Mark"));
  EXPECT_FALSE(p.Evaluate("Mark", "Robert"));
  EXPECT_EQ(p.ToString(), "edit<=2");
}

TEST(PredicateTest, JaroWinklerPredicate) {
  auto p = SimilarityPredicate::JaroWinkler(0.90);
  EXPECT_TRUE(p.Evaluate("MARTHA", "MARHTA"));
  EXPECT_FALSE(p.Evaluate("MARTHA", "XQZRVW"));
}

TEST(PredicateTest, QGramPredicate) {
  auto p = SimilarityPredicate::QGram(0.5, 2);
  EXPECT_TRUE(p.Evaluate("abcde", "abcde"));
  EXPECT_FALSE(p.Evaluate("abcde", "vwxyz"));
}

TEST(PredicateTest, EqualityOperator) {
  EXPECT_EQ(SimilarityPredicate::Edit(2), SimilarityPredicate::Edit(2));
  EXPECT_FALSE(SimilarityPredicate::Edit(2) == SimilarityPredicate::Edit(3));
  EXPECT_FALSE(SimilarityPredicate::Edit(2) == SimilarityPredicate::Equals());
}

// Parameterized sweep: predicate evaluation agrees with the raw metric.
class EditPredicateSweep : public ::testing::TestWithParam<int> {};

TEST_P(EditPredicateSweep, AgreesWithBoundedDistance) {
  int k = GetParam();
  auto p = SimilarityPredicate::Edit(k);
  Rng rng(200 + static_cast<uint64_t>(k));
  for (int i = 0; i < 200; ++i) {
    std::string a = rng.RandomWord(1 + rng.Index(10));
    std::string b = rng.RandomWord(1 + rng.Index(10));
    EXPECT_EQ(p.Evaluate(a, b), EditDistance(a, b) <= k);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, EditPredicateSweep,
                         ::testing::Values(0, 1, 2, 4, 7));

// The Jaro-Winkler predicate rejects on a multiset upper bound before
// scoring; the bound must never change a verdict. Inputs cover small
// alphabets (many shared characters), large ones with high-bit bytes (few),
// near-duplicates around the 0.95 threshold, empty strings, disjoint
// alphabets and a 300-character run, which overflows a byte counter.
class JaroWinklerPredicateSweep : public ::testing::TestWithParam<double> {};

TEST_P(JaroWinklerPredicateSweep, AgreesWithExactSimilarity) {
  const double t = GetParam();
  const auto p = SimilarityPredicate::JaroWinkler(t);
  Rng rng(300 + static_cast<uint64_t>(t * 100));
  auto random_string = [&rng](int alphabet, size_t max_len) {
    std::string s;
    const size_t len = rng.Index(max_len + 1);
    for (size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(
          'a' + rng.Index(static_cast<size_t>(alphabet))));
    }
    return s;
  };
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"", ""},
      {"", "abc"},
      {"abcd", "wxyz"},
      {"aaaa", "bbbbbbbb"},
      {std::string(300, 'a'), std::string(300, 'a')},
      {std::string(300, 'a'), std::string(299, 'a') + "b"},
      {std::string(300, 'a'), "a"},
      {std::string(300, 'a'), "bbba"},
  };
  for (int i = 0; i < 200; ++i) {
    for (int alphabet : {2, 4, 26, 150}) {
      std::string a = random_string(alphabet, 14);
      pairs.emplace_back(a, random_string(alphabet, 14));
      // A near-duplicate: one character replaced.
      std::string b = a;
      if (!b.empty()) b[rng.Index(b.size())] = 'a';
      pairs.emplace_back(std::move(a), std::move(b));
    }
  }
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(p.Evaluate(a, b), JaroWinklerSimilarity(a, b) >= t)
        << "\"" << a << "\" vs \"" << b << "\"";
    EXPECT_EQ(p.Evaluate(b, a), JaroWinklerSimilarity(b, a) >= t)
        << "\"" << b << "\" vs \"" << a << "\"";
    // A threshold equal to the pair's own score must accept it.
    EXPECT_TRUE(SimilarityPredicate::JaroWinkler(JaroWinklerSimilarity(a, b))
                    .Evaluate(a, b))
        << "\"" << a << "\" vs \"" << b << "\"";
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, JaroWinklerPredicateSweep,
                         ::testing::Values(0.0, 0.5, 0.70, 0.75, 0.95, 1.0));

}  // namespace
}  // namespace similarity
}  // namespace uniclean
