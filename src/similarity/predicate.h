// SimilarityPredicate: the `≈` operators of matching dependencies (§2.2).
// An MD premise clause is R[A] ≈ Rm[B] where ≈ is equality or a fuzzy
// predicate drawn from the set Υ of similarity predicates.

#ifndef UNICLEAN_SIMILARITY_PREDICATE_H_
#define UNICLEAN_SIMILARITY_PREDICATE_H_

#include <string>
#include <string_view>

namespace uniclean {
namespace similarity {

/// Which metric a predicate uses.
enum class PredicateKind {
  kEquals,        ///< exact string equality ('=' in the paper's MDs)
  kEditDistance,  ///< edit distance <= threshold (integer)
  kJaroWinkler,   ///< Jaro-Winkler similarity >= threshold in [0,1]
  kQGramJaccard,  ///< q-gram Jaccard similarity >= threshold in [0,1]
};

/// A concrete similarity predicate with its threshold.
class SimilarityPredicate {
 public:
  /// Exact equality.
  static SimilarityPredicate Equals() {
    return SimilarityPredicate(PredicateKind::kEquals, 0.0, 0);
  }
  /// Edit distance at most `max_distance`.
  static SimilarityPredicate Edit(int max_distance) {
    return SimilarityPredicate(PredicateKind::kEditDistance,
                               static_cast<double>(max_distance), 0);
  }
  /// Jaro-Winkler similarity at least `min_similarity`.
  static SimilarityPredicate JaroWinkler(double min_similarity) {
    return SimilarityPredicate(PredicateKind::kJaroWinkler, min_similarity, 0);
  }
  /// q-gram Jaccard similarity at least `min_similarity`.
  static SimilarityPredicate QGram(double min_similarity, int q = 2) {
    return SimilarityPredicate(PredicateKind::kQGramJaccard, min_similarity,
                               q);
  }

  PredicateKind kind() const { return kind_; }
  double threshold() const { return threshold_; }
  int qgram_size() const { return qgram_size_; }

  /// True when the predicate is plain equality.
  bool is_equality() const { return kind_ == PredicateKind::kEquals; }

  /// Evaluates the predicate on two (non-null) attribute values.
  bool Evaluate(std::string_view a, std::string_view b) const;

  /// e.g. "edit<=2", "=", "jw>=0.90".
  std::string ToString() const;

  bool operator==(const SimilarityPredicate& o) const {
    return kind_ == o.kind_ && threshold_ == o.threshold_ &&
           qgram_size_ == o.qgram_size_;
  }

 private:
  SimilarityPredicate(PredicateKind kind, double threshold, int qgram_size)
      : kind_(kind), threshold_(threshold), qgram_size_(qgram_size) {}

  PredicateKind kind_;
  double threshold_;
  int qgram_size_;
};

}  // namespace similarity
}  // namespace uniclean

#endif  // UNICLEAN_SIMILARITY_PREDICATE_H_
