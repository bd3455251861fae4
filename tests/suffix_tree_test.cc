#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "similarity/metrics.h"
#include "similarity/suffix_tree.h"

namespace uniclean {
namespace similarity {
namespace {

GeneralizedSuffixTree BuildTree(const std::vector<std::string>& strings) {
  GeneralizedSuffixTree tree;
  for (const auto& s : strings) tree.AddString(s);
  tree.Build();
  return tree;
}

bool BruteContains(const std::vector<std::string>& corpus,
                   const std::string& q) {
  for (const auto& s : corpus) {
    if (s.find(q) != std::string::npos) return true;
  }
  return false;
}

TEST(SuffixTreeTest, ContainsSubstringSmall) {
  auto tree = BuildTree({"banana", "bandana"});
  EXPECT_TRUE(tree.ContainsSubstring("ana"));
  EXPECT_TRUE(tree.ContainsSubstring("band"));
  EXPECT_TRUE(tree.ContainsSubstring("banana"));
  EXPECT_TRUE(tree.ContainsSubstring(""));
  EXPECT_FALSE(tree.ContainsSubstring("bananan"));
  EXPECT_FALSE(tree.ContainsSubstring("x"));
}

TEST(SuffixTreeTest, HandlesEmptyAndSingleCharStrings) {
  auto tree = BuildTree({"", "a", "aa"});
  EXPECT_EQ(tree.num_strings(), 3);
  EXPECT_TRUE(tree.ContainsSubstring("a"));
  EXPECT_TRUE(tree.ContainsSubstring("aa"));
  EXPECT_FALSE(tree.ContainsSubstring("aaa"));
  EXPECT_FALSE(tree.ContainsSubstring("b"));
}

TEST(SuffixTreeTest, AllSuffixesOfEveryStringAreContained) {
  std::vector<std::string> corpus{"mississippi", "missing", "sip"};
  auto tree = BuildTree(corpus);
  for (const auto& s : corpus) {
    for (size_t i = 0; i < s.size(); ++i) {
      for (size_t len = 1; len + i <= s.size(); ++len) {
        EXPECT_TRUE(tree.ContainsSubstring(s.substr(i, len)))
            << s.substr(i, len);
      }
    }
  }
}

TEST(SuffixTreeTest, ContainsMatchesBruteForceOnRandomCorpus) {
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
    auto tree = BuildTree(corpus);
    for (int probe = 0; probe < 50; ++probe) {
      std::string q;
      size_t len = rng.Index(6);
      for (size_t j = 0; j < len; ++j) {
        q.push_back(static_cast<char>('a' + rng.Index(3)));
      }
      EXPECT_EQ(tree.ContainsSubstring(q), BruteContains(corpus, q))
          << "query=" << q;
    }
  }
}

TEST(SuffixTreeTest, TopLEmptyQueryOrZeroL) {
  auto tree = BuildTree({"abc"});
  EXPECT_TRUE(tree.TopL("", 5).empty());
  EXPECT_TRUE(tree.TopL("abc", 0).empty());
}

TEST(SuffixTreeTest, TopLFindsExactDuplicateFirst) {
  auto tree = BuildTree({"edinburgh", "london", "edimburgh"});
  auto top = tree.TopL("edinburgh", 2, 1024);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].string_id, 0);
  EXPECT_EQ(top[0].score, 9);  // whole string
}

TEST(SuffixTreeTest, TopLScoreEqualsExactLcsWithGenerousCaps) {
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
    auto tree = BuildTree(corpus);
    std::string q;
    size_t len = 1 + rng.Index(10);
    for (size_t j = 0; j < len; ++j) {
      q.push_back(static_cast<char>('a' + rng.Index(4)));
    }
    auto top = tree.TopL(q, n, 1 << 20);
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

TEST(SuffixTreeTest, TopLRespectsLimit) {
  auto tree = BuildTree({"aaa", "aab", "aac", "aad", "aae"});
  auto top = tree.TopL("aa", 3, 1024);
  EXPECT_LE(top.size(), 3u);
  for (const auto& cand : top) EXPECT_EQ(cand.score, 2);
}

TEST(SuffixTreeTest, TopLOrderIsScoreDescending) {
  auto tree = BuildTree({"xyz", "abxy", "ab"});
  auto top = tree.TopL("abxyz", 3, 1024);
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
TEST(SuffixTreeTest, TopLIsAPrefixOfTheFullRankingAtScale) {
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
    auto tree = BuildTree(corpus);
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
      const auto full = tree.TopL(q, tree.num_strings(), 64);
      for (int l : {1, 5, 20}) {
        const auto top = tree.TopL(q, l, 64);
        const std::vector<BlockingCandidate> prefix(
            full.begin(),
            full.begin() + std::min(static_cast<size_t>(l), full.size()));
        EXPECT_EQ(top, prefix) << "query=\"" << q << "\" l=" << l;
      }
    }
  }
}

TEST(SuffixTreeTest, DuplicateStringsGetDistinctIds) {
  GeneralizedSuffixTree tree;
  int a = tree.AddString("same");
  int b = tree.AddString("same");
  tree.Build();
  EXPECT_NE(a, b);
  auto top = tree.TopL("same", 5, 1024);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].score, 4);
  EXPECT_EQ(top[1].score, 4);
}

TEST(SuffixTreeTest, EveryLeafIsADistinctSuffixStart) {
  // A correct Ukkonen build has exactly one leaf per suffix of the
  // concatenated text (strings + one separator each).
  Rng rng(123);
  for (int round = 0; round < 10; ++round) {
    GeneralizedSuffixTree tree;
    int total_len = 0;
    int n = 1 + static_cast<int>(rng.Index(6));
    for (int i = 0; i < n; ++i) {
      std::string s;
      size_t len = rng.Index(15);
      for (size_t j = 0; j < len; ++j) {
        s.push_back(static_cast<char>('a' + rng.Index(3)));
      }
      tree.AddString(s);
      total_len += static_cast<int>(s.size()) + 1;  // + separator
    }
    tree.Build();
    std::vector<int> starts = tree.AllSuffixStarts();
    ASSERT_EQ(static_cast<int>(starts.size()), total_len);
    for (int i = 0; i < total_len; ++i) {
      EXPECT_EQ(starts[static_cast<size_t>(i)], i);
    }
  }
}

TEST(SuffixTreeTest, LinearNodeCountOnRepetitiveInput) {
  // aaaa...a is the worst case for naive trees; Ukkonen keeps it linear.
  std::string s(2000, 'a');
  GeneralizedSuffixTree tree;
  tree.AddString(s);
  tree.Build();
  // A suffix tree has at most 2N internal+leaf nodes (+root).
  EXPECT_LE(tree.num_nodes(), 2 * 2002 + 1);
}

}  // namespace
}  // namespace similarity
}  // namespace uniclean
