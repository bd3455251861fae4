#include "similarity/suffix_tree.h"

#include <algorithm>

#include "common/check.h"

namespace uniclean {
namespace similarity {

namespace {
// Separator symbols are negative and unique per string so no suffix of one
// string can be confused with a suffix of another.
int32_t SeparatorFor(int string_id) { return -1 - string_id; }
int32_t SymbolFor(char c) { return static_cast<unsigned char>(c); }
}  // namespace

int GeneralizedSuffixTree::AddString(std::string_view s) {
  UC_CHECK(!built_) << "AddString after Build";
  int id = static_cast<int>(boundaries_.size());
  boundaries_.push_back(static_cast<int>(text_.size()));
  string_length_.push_back(static_cast<int>(s.size()));
  for (char c : s) text_.push_back(SymbolFor(c));
  text_.push_back(SeparatorFor(id));
  return id;
}

int GeneralizedSuffixTree::NewNode(int start, int end) {
  nodes_.push_back(Node{start, end, 0});
  build_next_.emplace_back();
  return static_cast<int>(nodes_.size() - 1);
}

void GeneralizedSuffixTree::Extend(int pos) {
  int last_new_node = -1;
  ++remainder_;
  const int32_t cur_symbol = text_[static_cast<size_t>(pos)];
  while (remainder_ > 0) {
    if (active_length_ == 0) active_edge_ = pos;
    const int32_t edge_symbol = text_[static_cast<size_t>(active_edge_)];
    auto it = build_next_[static_cast<size_t>(active_node_)].find(edge_symbol);
    if (it == build_next_[static_cast<size_t>(active_node_)].end()) {
      // No edge: create a leaf.
      int leaf = NewNode(pos, kOpenEnd);
      build_next_[static_cast<size_t>(active_node_)][edge_symbol] = leaf;
      if (last_new_node != -1) {
        nodes_[static_cast<size_t>(last_new_node)].link = active_node_;
        last_new_node = -1;
      }
    } else {
      int next_node = it->second;
      int edge_len = EdgeLength(nodes_[static_cast<size_t>(next_node)]);
      if (active_length_ >= edge_len) {
        // Walk down (canonicalize).
        active_edge_ += edge_len;
        active_length_ -= edge_len;
        active_node_ = next_node;
        continue;
      }
      if (text_[static_cast<size_t>(
              nodes_[static_cast<size_t>(next_node)].start + active_length_)] ==
          cur_symbol) {
        // Symbol already present on the edge: rule 3, stop.
        if (last_new_node != -1 && active_node_ != 0) {
          nodes_[static_cast<size_t>(last_new_node)].link = active_node_;
          last_new_node = -1;
        }
        ++active_length_;
        break;
      }
      // Split the edge.
      int split_start = nodes_[static_cast<size_t>(next_node)].start;
      int split = NewNode(split_start, split_start + active_length_);
      build_next_[static_cast<size_t>(active_node_)][edge_symbol] = split;
      int leaf = NewNode(pos, kOpenEnd);
      build_next_[static_cast<size_t>(split)][cur_symbol] = leaf;
      nodes_[static_cast<size_t>(next_node)].start += active_length_;
      build_next_[static_cast<size_t>(split)][text_[static_cast<size_t>(
          nodes_[static_cast<size_t>(next_node)].start)]] = next_node;
      if (last_new_node != -1) {
        nodes_[static_cast<size_t>(last_new_node)].link = split;
      }
      last_new_node = split;
    }
    --remainder_;
    if (active_node_ == 0 && active_length_ > 0) {
      --active_length_;
      active_edge_ = pos - remainder_ + 1;
    } else if (active_node_ != 0) {
      active_node_ = nodes_[static_cast<size_t>(active_node_)].link;
    }
  }
}

void GeneralizedSuffixTree::Build() {
  UC_CHECK(!built_) << "Build called twice";
  built_ = true;
  nodes_.clear();
  build_next_.clear();
  NewNode(-1, -1);  // root
  active_node_ = 0;
  active_edge_ = 0;
  active_length_ = 0;
  remainder_ = 0;
  for (int pos = 0; pos < static_cast<int>(text_.size()); ++pos) {
    Extend(pos);
  }
  // All suffixes end in a unique separator, so remainder_ must have drained.
  UC_CHECK_EQ(remainder_, 0) << "suffix tree build left pending suffixes";

  // Compute suffix starts for leaves (suffix_start = |text| - depth(leaf))
  // and, per node, the contiguous slice of leaf_starts_ covering its
  // subtree, so leaf collection at query time is an array read instead of a
  // subtree walk. The DFS visits children in reverse map-iteration order —
  // the exact order the old per-query stack walk produced — so truncated
  // collections pick the same leaves.
  suffix_start_.assign(nodes_.size(), -1);
  leaf_range_.assign(nodes_.size(), {0, 0});
  leaf_starts_.clear();
  leaf_starts_.reserve(text_.size());
  struct Frame {
    int node;
    int depth;
    bool entered;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{0, 0, false});
  while (!stack.empty()) {
    Frame& f = stack.back();
    const int node = f.node;
    const auto& children = build_next_[static_cast<size_t>(node)];
    if (!f.entered) {
      f.entered = true;
      leaf_range_[static_cast<size_t>(node)].begin =
          static_cast<int>(leaf_starts_.size());
      if (children.empty() && node != 0) {
        suffix_start_[static_cast<size_t>(node)] =
            static_cast<int>(text_.size()) - f.depth;
        leaf_starts_.push_back(suffix_start_[static_cast<size_t>(node)]);
      } else {
        // Push children in map order; LIFO popping visits them in reverse,
        // matching the old per-query stack walk.
        const int depth = f.depth;
        for (const auto& [sym, child] : children) {
          (void)sym;
          stack.push_back(Frame{
              child,
              depth + EdgeLength(nodes_[static_cast<size_t>(child)]), false});
        }
        continue;
      }
    }
    // Post-order: close the node's slice. Children appear below this frame
    // on the stack, so the node's frame resurfaces after its subtree.
    leaf_range_[static_cast<size_t>(node)].end =
        static_cast<int>(leaf_starts_.size());
    stack.pop_back();
  }

  // O(1) suffix-position -> string-id map (replaces the per-leaf binary
  // search over boundaries_).
  pos_string_id_.assign(text_.size(), -1);
  for (size_t id = 0; id < boundaries_.size(); ++id) {
    const int begin = boundaries_[id];
    for (int k = 0; k < string_length_[id]; ++k) {
      pos_string_id_[static_cast<size_t>(begin + k)] = static_cast<int>(id);
    }
  }

  FreezeChildren();
}

void GeneralizedSuffixTree::FreezeChildren() {
  size_t total = 0;
  for (const auto& children : build_next_) total += children.size();
  child_begin_.assign(nodes_.size() + 1, 0);
  child_symbols_.clear();
  child_symbols_.reserve(total);
  child_nodes_.clear();
  child_nodes_.reserve(total);
  std::vector<std::pair<int32_t, int>> sorted;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    child_begin_[i] = static_cast<int>(child_symbols_.size());
    sorted.assign(build_next_[i].begin(), build_next_[i].end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [symbol, child] : sorted) {
      child_symbols_.push_back(symbol);
      child_nodes_.push_back(child);
    }
  }
  child_begin_[nodes_.size()] = static_cast<int>(child_symbols_.size());
  // Release the build maps; queries run on the CSR arrays alone. For a
  // master-scale tree this drops tens of bytes of hash-map overhead per
  // node.
  build_next_.clear();
  build_next_.shrink_to_fit();
}

int GeneralizedSuffixTree::FindChild(int node, int32_t symbol) const {
  const int begin = child_begin_[static_cast<size_t>(node)];
  const int end = child_begin_[static_cast<size_t>(node) + 1];
  const auto first = child_symbols_.begin() + begin;
  const auto last = child_symbols_.begin() + end;
  const auto it = std::lower_bound(first, last, symbol);
  if (it == last || *it != symbol) return -1;
  return child_nodes_[static_cast<size_t>(it - child_symbols_.begin())];
}

std::vector<int> GeneralizedSuffixTree::AllSuffixStarts() const {
  UC_CHECK(built_);
  std::vector<int> starts;
  for (size_t n = 1; n < nodes_.size(); ++n) {
    // Leaves are exactly the nodes the build stamped a suffix start on.
    if (suffix_start_[n] >= 0) starts.push_back(suffix_start_[n]);
  }
  std::sort(starts.begin(), starts.end());
  return starts;
}

bool GeneralizedSuffixTree::ContainsSubstring(std::string_view q) const {
  UC_CHECK(built_);
  int node = 0;
  size_t i = 0;
  while (i < q.size()) {
    const int next_node = FindChild(node, SymbolFor(q[i]));
    if (next_node < 0) return false;
    const Node& child = nodes_[static_cast<size_t>(next_node)];
    int len = EdgeLength(child);
    for (int k = 0; k < len && i < q.size(); ++k, ++i) {
      if (text_[static_cast<size_t>(child.start + k)] != SymbolFor(q[i])) {
        return false;
      }
    }
    node = next_node;
  }
  return true;
}

std::vector<BlockingCandidate> GeneralizedSuffixTree::TopL(
    std::string_view q, int l, int max_leaves_per_probe) const {
  std::vector<BlockingCandidate> result;
  TopL(q, l, max_leaves_per_probe, &result);
  return result;
}

void GeneralizedSuffixTree::TopL(std::string_view q, int l,
                                 int max_leaves_per_probe,
                                 std::vector<BlockingCandidate>* out) const {
  UC_CHECK(built_);
  std::vector<BlockingCandidate>& result = *out;
  result.clear();
  if (l <= 0 || q.empty()) return;

  // For each starting offset of q, descend from the root as far as possible.
  // A string s whose longest common substring with q (starting at this
  // offset) has length m diverges from the descent path either at a node of
  // depth m (different child) or inside an edge (in which case its leaf lies
  // below the edge's child node, recorded when the probe stops there). To
  // credit both cases we record every node boundary visited with its depth,
  // not just the final locus.
  //
  // All probe-internal scratch is thread-local: TopL runs once per distinct
  // probed value (blocking-memo misses and the memo-off ablation), and the
  // per-call vector/map churn was a measured top allocation item.
  struct Probe {
    int node;   // a node on the match path
    int depth;  // matched length at (or within the edge entering) the node
  };
  static thread_local std::vector<Probe> probes;
  probes.clear();
  for (size_t start = 0; start < q.size(); ++start) {
    int node = 0;
    int depth = 0;
    size_t i = start;
    while (i < q.size()) {
      const int next_node = FindChild(node, SymbolFor(q[i]));
      if (next_node < 0) break;
      const Node& child = nodes_[static_cast<size_t>(next_node)];
      int len = EdgeLength(child);
      int advanced = 0;
      bool mismatch = false;
      for (int k = 0; k < len && i < q.size(); ++k, ++i) {
        if (text_[static_cast<size_t>(child.start + k)] != SymbolFor(q[i])) {
          mismatch = true;
          break;
        }
        ++advanced;
      }
      depth += advanced;
      node = next_node;  // even on partial edge match, subtree is correct
      if (depth > 0) probes.push_back(Probe{node, depth});
      if (mismatch || advanced < len) break;
    }
  }

  // Deepest probes first, so a string's first credit is its best score.
  std::sort(probes.begin(), probes.end(),
            [](const Probe& a, const Probe& b) { return a.depth > b.depth; });

  // Per-string best score, indexed by string id (0: not credited yet; every
  // probe depth is positive), and the ids credited by this query — the only
  // entries reset before returning.
  static thread_local std::vector<int> best_score;
  static thread_local std::vector<int> credited;
  if (best_score.size() < boundaries_.size()) {
    best_score.resize(boundaries_.size(), 0);
  }
  credited.clear();
  int last_depth = 0;
  for (const Probe& p : probes) {
    // Early exit, exact: every credited string scores at least the depth of
    // the last probe processed, and a strictly shallower probe can only
    // credit new strings below all of them. Once l strings are credited,
    // the sorted and truncated result can no longer change.
    if (static_cast<int>(credited.size()) >= l && p.depth < last_depth) break;
    last_depth = p.depth;
    // The node's leaves are a precomputed contiguous slice (see Build()).
    const auto [begin, end] = leaf_range_[static_cast<size_t>(p.node)];
    const int take = std::min(max_leaves_per_probe, end - begin);
    for (int k = begin; k < begin + take; ++k) {
      const int sid = pos_string_id_[static_cast<size_t>(
          leaf_starts_[static_cast<size_t>(k)])];
      if (sid < 0 || best_score[static_cast<size_t>(sid)] != 0) continue;
      best_score[static_cast<size_t>(sid)] = p.depth;
      credited.push_back(sid);
    }
  }

  result.reserve(credited.size());
  for (int sid : credited) {
    int& score = best_score[static_cast<size_t>(sid)];
    result.push_back(BlockingCandidate{sid, score});
    score = 0;
  }
  std::sort(result.begin(), result.end(),
            [](const BlockingCandidate& a, const BlockingCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.string_id < b.string_id;
            });
  if (static_cast<int>(result.size()) > l) result.resize(static_cast<size_t>(l));
}

}  // namespace similarity
}  // namespace uniclean
