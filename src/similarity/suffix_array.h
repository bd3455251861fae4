// Generalized suffix array over a set of strings with a top-l
// longest-common-substring query — the blocking index of §5.2: for a query
// value v, find the l master values sharing the longest common substring
// with v, reducing MD similarity checks from |Dm| to l candidates. A match
// locus is a range of the sorted suffixes (Abouelhoda, Kurtz & Ohlebusch,
// "Replacing suffix trees with enhanced suffix arrays", JDA 2004), so the
// data alone fixes the order in which a capped probe meets its suffixes.

#ifndef UNICLEAN_SIMILARITY_SUFFIX_ARRAY_H_
#define UNICLEAN_SIMILARITY_SUFFIX_ARRAY_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace uniclean {
namespace snapshot {
class Codec;  // snapshot/codec.h: persists and checks the suffix order
}  // namespace snapshot
namespace similarity {

/// A candidate string produced by a blocking query.
struct BlockingCandidate {
  int string_id;  ///< id returned by AddString
  int score;      ///< length of a common substring found (lower bound on LCS)

  bool operator==(const BlockingCandidate& o) const {
    return string_id == o.string_id && score == o.score;
  }
};

/// Generalized suffix array: build once over the indexed strings (e.g. the
/// active domain of a master-data attribute), then query many times. The
/// index is immutable after Build(), so concurrent queries are safe.
class GeneralizedSuffixArray {
 public:
  /// Registers a string to index. Must be called before Build().
  /// Returns the string id used in query results.
  int AddString(std::string_view s);

  /// Sorts the suffixes by prefix doubling with counting sorts: O(n log n)
  /// on any input. Call exactly once, after all AddString calls.
  void Build();

  bool built() const { return built_; }
  int num_strings() const { return num_strings_; }

  /// Returns up to `l` indexed strings sharing the longest common substrings
  /// with `q`, best first (ties broken by string id). Each probe is a
  /// maximal range of suffixes that start with one substring of `q`;
  /// `max_leaves_per_probe` caps the suffixes credited from one range, in
  /// suffix order. With a generous cap the top-1 score equals the exact LCS
  /// length. Probes are scored deepest first and stop once l strings are
  /// credited and the next probe is shallower: nothing a shallower probe
  /// credits can outrank them. Requires built().
  std::vector<BlockingCandidate> TopL(std::string_view q, int l,
                                      int max_leaves_per_probe = 64) const;

  /// Allocation-free form: writes the candidates into `*out` (cleared
  /// first), reusing caller-owned capacity across probes — the hot entry
  /// point for MdMatcher. Probe-internal scratch is thread-local.
  void TopL(std::string_view q, int l, int max_leaves_per_probe,
            std::vector<BlockingCandidate>* out) const;

  /// Every text position in suffix order. The text is each string followed
  /// by its own separator; separators sort before every byte and by
  /// ascending string id, so suffixes equal up to their string's end order
  /// by id.
  const std::vector<int>& suffix_order() const { return order_; }

 private:
  // snapshot::Codec persists order_ alone: a restore re-derives text_ from
  // the master, proves the loaded order is the sorted one, then calls
  // Index().
  friend class ::uniclean::snapshot::Codec;

  /// Derives the first-symbol table and the position -> string-id map from
  /// text_ and order_, and marks the index built.
  void Index();

  // Concatenated symbols: bytes as 0..255, and after each string a unique
  // negative separator (INT32_MIN + id), so plain int32 comparison is the
  // suffix order's symbol order.
  std::vector<int32_t> text_;
  std::vector<int> order_;  // text positions, suffixes ascending
  // first_[c] .. first_[c + 1]: the order_ range of suffixes starting with
  // byte c (separator-initial suffixes occupy [0, first_[0])).
  std::array<int, 257> first_{};
  std::vector<int> pos_string_id_;  // per text position
  int num_strings_ = 0;
  bool built_ = false;
};

}  // namespace similarity
}  // namespace uniclean

#endif  // UNICLEAN_SIMILARITY_SUFFIX_ARRAY_H_
