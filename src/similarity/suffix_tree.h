// Generalized suffix tree over a set of strings (Ukkonen's algorithm) with a
// top-l longest-common-substring query — the blocking index of §5.2: for a
// query value v, find the l master values sharing the longest common
// substring with v, reducing MD similarity checks from |Dm| to l candidates.
// The per-query cost is O(l * |v|^2), matching the complexity the paper
// states for this structure.

#ifndef UNICLEAN_SIMILARITY_SUFFIX_TREE_H_
#define UNICLEAN_SIMILARITY_SUFFIX_TREE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace uniclean {
namespace snapshot {
class Codec;  // snapshot/codec.h: serializes the built tree's internals
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

/// Generalized suffix tree: build once over the indexed strings (e.g. the
/// active domain of a master-data attribute), then query many times.
class GeneralizedSuffixTree {
 public:
  GeneralizedSuffixTree() = default;

  /// Registers a string to index. Must be called before Build().
  /// Returns the string id used in query results.
  int AddString(std::string_view s);

  /// Constructs the tree. Call exactly once, after all AddString calls.
  void Build();

  bool built() const { return built_; }
  int num_strings() const { return static_cast<int>(boundaries_.size()); }

  /// True iff `q` occurs as a substring of at least one indexed string.
  /// Requires built(). O(|q|).
  bool ContainsSubstring(std::string_view q) const;

  /// Returns up to `l` indexed strings sharing the longest common substrings
  /// with `q`, best first (ties broken by string id). `max_leaves_per_probe`
  /// bounds the leaf collection under each match locus; with a generous
  /// bound the top-1 score equals the exact LCS length. Probes are scored
  /// deepest first and stop once l strings are credited and the next probe
  /// is shallower: nothing a shallower probe credits can outrank them.
  /// Requires built().
  std::vector<BlockingCandidate> TopL(std::string_view q, int l,
                                      int max_leaves_per_probe = 64) const;

  /// Allocation-free form: writes the candidates into `*out` (cleared
  /// first), reusing caller-owned capacity across probes — the hot entry
  /// point for MdMatcher, whose per-probe scratch otherwise dominated the
  /// allocation profile. Probe-internal scratch is thread-local, so
  /// concurrent queries against one built tree are safe (the tree itself is
  /// immutable after Build()).
  void TopL(std::string_view q, int l, int max_leaves_per_probe,
            std::vector<BlockingCandidate>* out) const;

  /// Total number of tree nodes (diagnostics / tests).
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// All leaf suffix start positions, sorted. A correct build yields exactly
  /// {0, ..., total_text_length-1}: one leaf per suffix of the concatenated
  /// text. Exposed for validation in tests.
  std::vector<int> AllSuffixStarts() const;

 private:
  // snapshot::Codec persists a built tree verbatim — nodes, suffix starts
  // and the precomputed leaf slices — so a loaded tree answers TopL with
  // byte-identical candidate order (the DFS that fixes leaf order depends
  // on unordered_map iteration order and must not be re-run on load).
  friend class ::uniclean::snapshot::Codec;

  struct Node {
    int start = -1;  // edge label [start, end) into text_, entering this node
    int end = -1;    // exclusive; kOpenEnd for growing leaves during build
    int link = 0;    // suffix link
  };

  static constexpr int kOpenEnd = -1;

  int EdgeEnd(const Node& n) const {
    return n.end == kOpenEnd ? static_cast<int>(text_.size()) : n.end;
  }
  int EdgeLength(const Node& n) const { return EdgeEnd(n) - n.start; }

  int NewNode(int start, int end);
  void Extend(int pos);

  /// Converts the build-time per-node child maps into the frozen CSR arrays
  /// (children sorted by symbol) and discards the maps. Called at the end of
  /// Build(); a restored tree gets the arrays installed directly.
  void FreezeChildren();

  /// Child of `node` along `symbol` in the frozen arrays, or -1. O(log k)
  /// over the node's k children.
  int FindChild(int node, int32_t symbol) const;

  std::vector<int32_t> text_;       // concatenated symbols + unique separators
  std::vector<int> boundaries_;     // start offset of each string in text_
  std::vector<int> string_length_;  // length of each indexed string
  std::vector<Node> nodes_;
  // Build-time children: one mutable map per node, indexed like nodes_,
  // consumed by FreezeChildren() when the build finishes. Empty on a built
  // (or restored) tree — queries never touch it.
  std::vector<std::unordered_map<int32_t, int>> build_next_;
  // Frozen children in CSR form: node i's children are the slice
  // [child_begin_[i], child_begin_[i + 1]) of the symbol/node arrays,
  // sorted by symbol. Flat arrays restore from a snapshot as bulk copies —
  // the reason a warm start costs milliseconds where Ukkonen's build (or
  // rebuilding half a million little hash maps) costs hundreds.
  std::vector<int> child_begin_;       // size nodes_.size() + 1
  std::vector<int32_t> child_symbols_;
  std::vector<int> child_nodes_;
  std::vector<int> suffix_start_;   // per node: suffix start if leaf, else -1
  // Query-time acceleration, precomputed at Build(): the leaves of every
  // subtree as a contiguous slice of a preorder leaf array, and an O(1)
  // text-position -> string-id map.
  std::vector<int> leaf_starts_;                 // leaf suffix starts, preorder
  // Per node: the [begin, end) slice of leaf_starts_ covering its subtree.
  // A plain struct (not std::pair) so the snapshot codec's bulk word
  // transfer sees a trivially copyable element.
  struct LeafRange {
    int begin = 0;
    int end = 0;
  };
  std::vector<LeafRange> leaf_range_;
  std::vector<int> pos_string_id_;               // per text position
  bool built_ = false;

  // Ukkonen build state.
  int active_node_ = 0;
  int active_edge_ = 0;
  int active_length_ = 0;
  int remainder_ = 0;
};

}  // namespace similarity
}  // namespace uniclean

#endif  // UNICLEAN_SIMILARITY_SUFFIX_TREE_H_
