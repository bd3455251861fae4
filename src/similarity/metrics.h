// String similarity metrics used by matching dependencies (§2.2) and by the
// repair cost model (§3.1): edit distance, Hamming, Jaro(-Winkler),
// q-gram Jaccard, and longest common substring.

#ifndef UNICLEAN_SIMILARITY_METRICS_H_
#define UNICLEAN_SIMILARITY_METRICS_H_

#include <string>
#include <string_view>
#include <vector>

namespace uniclean {
namespace similarity {

/// Levenshtein distance (insertions, deletions, substitutions).
int EditDistance(std::string_view a, std::string_view b);

/// Levenshtein distance with early exit: returns the exact distance if it is
/// <= k, otherwise any value > k. Runs the banded DP in O((2k+1)*min(|a|,|b|)).
int BoundedEditDistance(std::string_view a, std::string_view b, int k);

/// Hamming distance; strings of unequal length differ additionally in the
/// length gap (each unmatched trailing character counts as one mismatch).
int HammingDistance(std::string_view a, std::string_view b);

/// Jaro similarity in [0, 1].
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity in [0, 1] with the standard prefix scale 0.1 and
/// a max common-prefix bonus of 4 characters.
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// The sorted multiset of padded q-grams of `s` ('#' padding on both sides).
/// Reference implementation: allocates one std::string per gram. The hot
/// path (QGramJaccard) uses QGramIdProfile instead; this form is kept for
/// callers that need the gram text and as the parity oracle in tests.
std::vector<std::string> QGramProfile(std::string_view s, int q);

/// The same profile with every q-gram interned as an integer id: the gram's
/// q bytes packed big-endian into a uint64, so for a fixed q the sort order
/// and equalities match QGramProfile exactly while building the profile
/// allocates nothing beyond `grams` capacity growth. Requires 1 <= q <= 8
/// (larger grams do not fit an id; QGramJaccard falls back to the string
/// profile there). `grams` is cleared first, so scratch buffers can be
/// reused across calls.
void QGramIdProfile(std::string_view s, int q, std::vector<uint64_t>* grams);

/// Jaccard similarity of the q-gram sets of two strings, in [0, 1].
/// Thread-safe and allocation-free in steady state for q <= 8 (interned
/// gram ids in thread-local scratch).
double QGramJaccard(std::string_view a, std::string_view b, int q = 2);

/// Length of the longest common substring (contiguous). O(|a|*|b|); used as
/// the blocking score oracle for the suffix-array index (§5.2).
int LongestCommonSubstring(std::string_view a, std::string_view b);

/// Normalized dissimilarity dis(v,v')/max(|v|,|v'|) in [0, 1] used by the
/// repair cost model (§3.1). dis = edit distance; both empty -> 0.
double NormalizedEditDistance(std::string_view a, std::string_view b);

}  // namespace similarity
}  // namespace uniclean

#endif  // UNICLEAN_SIMILARITY_METRICS_H_
