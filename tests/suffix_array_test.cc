#include <algorithm>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "similarity/metrics.h"
#include "similarity/suffix_array.h"
#include "suffix_order_oracle.h"

namespace uniclean {
namespace similarity {
namespace {

GeneralizedSuffixArray BuildIndex(const std::vector<std::string>& strings) {
  GeneralizedSuffixArray index;
  for (const auto& s : strings) index.AddString(s);
  index.Build();
  return index;
}

/// `q` occurs in an indexed string iff it is empty or the uncapped top-1
/// score (the longest common substring) is all of `q`.
bool Contains(const GeneralizedSuffixArray& index, std::string_view q) {
  if (q.empty()) return true;
  const auto top = index.TopL(q, 1, 1 << 30);
  return !top.empty() && top[0].score == static_cast<int>(q.size());
}

bool BruteContains(const std::vector<std::string>& corpus,
                   const std::string& q) {
  for (const auto& s : corpus) {
    if (s.find(q) != std::string::npos) return true;
  }
  return false;
}

TEST(SuffixArrayTest, ContainsSubstringSmall) {
  auto index = BuildIndex({"banana", "bandana"});
  EXPECT_TRUE(Contains(index, "ana"));
  EXPECT_TRUE(Contains(index, "band"));
  EXPECT_TRUE(Contains(index, "banana"));
  EXPECT_TRUE(Contains(index, ""));
  EXPECT_FALSE(Contains(index, "bananan"));
  EXPECT_FALSE(Contains(index, "x"));
}

TEST(SuffixArrayTest, HandlesEmptyAndSingleCharStrings) {
  auto index = BuildIndex({"", "a", "aa"});
  EXPECT_EQ(index.num_strings(), 3);
  EXPECT_TRUE(Contains(index, "a"));
  EXPECT_TRUE(Contains(index, "aa"));
  EXPECT_FALSE(Contains(index, "aaa"));
  EXPECT_FALSE(Contains(index, "b"));
}

TEST(SuffixArrayTest, AllSuffixesOfEveryStringAreContained) {
  std::vector<std::string> corpus{"mississippi", "missing", "sip"};
  auto index = BuildIndex(corpus);
  for (const auto& s : corpus) {
    for (size_t i = 0; i < s.size(); ++i) {
      for (size_t len = 1; len + i <= s.size(); ++len) {
        EXPECT_TRUE(Contains(index, s.substr(i, len)))
            << s.substr(i, len);
      }
    }
  }
}

TEST(SuffixArrayTest, ContainsMatchesBruteForceOnRandomCorpus) {
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::string> corpus;
    int n = 1 + static_cast<int>(rng.Index(8));
    for (int i = 0; i < n; ++i) {
      // Small alphabet to force repeated substrings and deep structure.
      std::string s;
      size_t len = rng.Index(12);
      for (size_t j = 0; j < len; ++j) {
        s.push_back(static_cast<char>('a' + rng.Index(3)));
      }
      corpus.push_back(s);
    }
    auto index = BuildIndex(corpus);
    for (int probe = 0; probe < 50; ++probe) {
      std::string q;
      size_t len = rng.Index(6);
      for (size_t j = 0; j < len; ++j) {
        q.push_back(static_cast<char>('a' + rng.Index(3)));
      }
      EXPECT_EQ(Contains(index, q), BruteContains(corpus, q))
          << "query=" << q;
    }
  }
}

TEST(SuffixArrayTest, TopLEmptyQueryOrZeroL) {
  auto index = BuildIndex({"abc"});
  EXPECT_TRUE(index.TopL("", 5).empty());
  EXPECT_TRUE(index.TopL("abc", 0).empty());
}

TEST(SuffixArrayTest, TopLFindsExactDuplicateFirst) {
  auto index = BuildIndex({"edinburgh", "london", "edimburgh"});
  auto top = index.TopL("edinburgh", 2, 1024);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].string_id, 0);
  EXPECT_EQ(top[0].score, 9);  // whole string
}

TEST(SuffixArrayTest, TopLScoreEqualsExactLcsWithGenerousCaps) {
  Rng rng(77);
  for (int round = 0; round < 15; ++round) {
    std::vector<std::string> corpus;
    int n = 2 + static_cast<int>(rng.Index(6));
    for (int i = 0; i < n; ++i) {
      std::string s;
      size_t len = 1 + rng.Index(10);
      for (size_t j = 0; j < len; ++j) {
        s.push_back(static_cast<char>('a' + rng.Index(4)));
      }
      corpus.push_back(s);
    }
    auto index = BuildIndex(corpus);
    std::string q;
    size_t len = 1 + rng.Index(10);
    for (size_t j = 0; j < len; ++j) {
      q.push_back(static_cast<char>('a' + rng.Index(4)));
    }
    auto top = index.TopL(q, n, 1 << 20);
    // With unbounded caps every string sharing a substring appears, and the
    // reported score is the exact LCS length.
    for (const auto& cand : top) {
      int exact = LongestCommonSubstring(q, corpus[static_cast<size_t>(
                                                cand.string_id)]);
      EXPECT_EQ(cand.score, exact)
          << "q=" << q << " s=" << corpus[static_cast<size_t>(cand.string_id)];
    }
    // The true best-LCS string must be ranked first (same score at least).
    int best_exact = 0;
    for (const auto& s : corpus) {
      best_exact = std::max(best_exact, LongestCommonSubstring(q, s));
    }
    if (best_exact > 0) {
      ASSERT_FALSE(top.empty());
      EXPECT_EQ(top[0].score, best_exact);
    }
  }
}

TEST(SuffixArrayTest, TopLRespectsLimit) {
  auto index = BuildIndex({"aaa", "aab", "aac", "aad", "aae"});
  auto top = index.TopL("aa", 3, 1024);
  EXPECT_LE(top.size(), 3u);
  for (const auto& cand : top) EXPECT_EQ(cand.score, 2);
}

TEST(SuffixArrayTest, TopLOrderIsScoreDescending) {
  auto index = BuildIndex({"xyz", "abxy", "ab"});
  auto top = index.TopL("abxyz", 3, 1024);
  ASSERT_GE(top.size(), 2u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
  EXPECT_EQ(top[0].string_id, 1);  // "abxy" shares 4 chars
  EXPECT_EQ(top[0].score, 4);
}

// TopL stops probing once l strings are credited and the next probe is
// shallower. The corpora here share a long common suffix, as hospital names
// share " Hospital": a few hundred strings put far more than 64 leaves (the
// per-probe cap) under the suffix's nodes, so the cap bites and top-l cuts
// among tied scores. However early the query stops, its top-l must be the
// first l entries of the full ranking.
TEST(SuffixArrayTest, TopLIsAPrefixOfTheFullRankingAtScale) {
  Rng rng(2024);
  auto random_word = [&rng](size_t min_len, size_t max_len) {
    std::string s;
    const size_t len = min_len + rng.Index(max_len - min_len + 1);
    for (size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>('a' + rng.Index(6)));
    }
    return s;
  };
  const std::string suffix = " Hospital";
  for (int round = 0; round < 4; ++round) {
    std::vector<std::string> corpus;
    const int n = 200 + static_cast<int>(rng.Index(201));
    for (int i = 0; i < n; ++i) corpus.push_back(random_word(2, 10) + suffix);
    auto index = BuildIndex(corpus);
    for (int probe = 0; probe < 60; ++probe) {
      std::string q;
      switch (probe % 4) {
        case 0:  // a corpus member with one character changed
          q = corpus[rng.Index(corpus.size())];
          q[rng.Index(q.size())] = 'z';
          break;
        case 1:  // a new name under the shared suffix
          q = random_word(1, 12) + suffix;
          break;
        case 2:  // a cut-off suffix
          q = random_word(0, 6) +
              suffix.substr(0, 1 + rng.Index(suffix.size()));
          break;
        default:  // no suffix at all
          q = random_word(1, 12);
          break;
      }
      const auto full = index.TopL(q, index.num_strings(), 64);
      for (int l : {1, 5, 20}) {
        const auto top = index.TopL(q, l, 64);
        const std::vector<BlockingCandidate> prefix(
            full.begin(),
            full.begin() + std::min(static_cast<size_t>(l), full.size()));
        EXPECT_EQ(top, prefix) << "query=\"" << q << "\" l=" << l;
      }
    }
  }
}

TEST(SuffixArrayTest, DuplicateStringsGetDistinctIds) {
  GeneralizedSuffixArray index;
  int a = index.AddString("same");
  int b = index.AddString("same");
  index.Build();
  EXPECT_NE(a, b);
  auto top = index.TopL("same", 5, 1024);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].score, 4);
  EXPECT_EQ(top[1].score, 4);
}

TEST(SuffixArrayTest, SuffixOrderMatchesABruteForceSort) {
  Rng rng(123);
  for (int round = 0; round < 10; ++round) {
    std::vector<std::string> corpus;
    int n = 1 + static_cast<int>(rng.Index(6));
    for (int i = 0; i < n; ++i) {
      std::string s;
      size_t len = rng.Index(15);
      for (size_t j = 0; j < len; ++j) {
        s.push_back(static_cast<char>('a' + rng.Index(3)));
      }
      corpus.push_back(s);
    }
    EXPECT_EQ(BuildIndex(corpus).suffix_order(),
              BruteForceSuffixOrder(corpus));
  }
}

// Suffixes equal up to their string's end sort by string id, so a probe
// capped below its range's size credits the lowest ids first.
TEST(SuffixArrayTest, CappedTiesCreditTheLowestIdsFirst) {
  auto index = BuildIndex(std::vector<std::string>(100, "ab"));
  const auto top = index.TopL("ab", 100, 8);
  ASSERT_EQ(top.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(top[static_cast<size_t>(i)], (BlockingCandidate{i, 2}));
  }
}

// One letter repeated is the worst case for sorting suffixes by direct
// comparison (quadratic); prefix doubling stays O(n log n).
TEST(SuffixArrayTest, MillionSymbolsOfOneLetterBuildAndAnswer) {
  GeneralizedSuffixArray index;
  index.AddString(std::string(1000000, 'a'));
  index.AddString("ab");
  index.Build();
  ASSERT_EQ(index.suffix_order().size(), 1000004u);
  EXPECT_EQ(index.suffix_order()[0], 1000000);  // the first separator
  // "ab" is the last of the million suffixes starting with 'a', so the
  // 64-suffix cap never reaches it from a probe of 'a's alone.
  EXPECT_EQ(index.TopL(std::string(50, 'a'), 5),
            (std::vector<BlockingCandidate>{{0, 50}}));
  EXPECT_EQ(index.TopL("ab", 5),
            (std::vector<BlockingCandidate>{{1, 2}, {0, 1}}));
}

// An all-null blocking column indexes zero strings.
TEST(SuffixArrayTest, ZeroStringsGiveNoCandidates) {
  auto index = BuildIndex({});
  EXPECT_TRUE(index.built());
  EXPECT_EQ(index.num_strings(), 0);
  EXPECT_TRUE(index.suffix_order().empty());
  EXPECT_TRUE(index.TopL("anything", 5).empty());
}

TEST(SuffixArrayTest, ConcurrentQueriesGetTheSerialAnswers) {
  Rng rng(99);
  auto random_word = [&rng](size_t len) {
    std::string s;
    for (size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>('a' + rng.Index(4)));
    }
    return s;
  };
  std::vector<std::string> corpus;
  for (int i = 0; i < 300; ++i) {
    corpus.push_back(random_word(3 + rng.Index(12)));
  }
  const auto index = BuildIndex(corpus);
  std::vector<std::string> queries;
  for (int i = 0; i < 200; ++i) {
    queries.push_back(random_word(1 + rng.Index(14)));
  }
  std::vector<std::vector<BlockingCandidate>> serial;
  for (const auto& q : queries) serial.push_back(index.TopL(q, 20, 8));

  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      std::vector<BlockingCandidate> out;
      for (int pass = 0; pass < 5; ++pass) {
        for (size_t i = 0; i < queries.size(); ++i) {
          index.TopL(queries[i], 20, 8, &out);
          if (out != serial[i]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

}  // namespace
}  // namespace similarity
}  // namespace uniclean
