#include "similarity/suffix_array.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace uniclean {
namespace similarity {

namespace {
constexpr int32_t kSeparatorBase = std::numeric_limits<int32_t>::min();
int32_t SymbolFor(char c) { return static_cast<unsigned char>(c); }
}  // namespace

int GeneralizedSuffixArray::AddString(std::string_view s) {
  UC_CHECK(!built_) << "AddString after Build";
  for (char c : s) text_.push_back(SymbolFor(c));
  text_.push_back(kSeparatorBase + num_strings_);
  return num_strings_++;
}

void GeneralizedSuffixArray::Build() {
  UC_CHECK(!built_) << "Build called twice";
  const int n = static_cast<int>(text_.size());
  // Prefix doubling (Manber & Myers): after the round for h, rank[i] is the
  // class of suffix i's first 2h symbols. Each round is two counting-sort
  // passes, and the unique separators make every class a singleton once 2h
  // exceeds the longest string.
  std::vector<int> rank(n);
  std::vector<int> next(n);
  std::vector<int> by_second(n);
  std::vector<int> count(std::max(n, num_strings_ + 256) + 1);
  order_.resize(n);
  // Stable counting sort of `in` by rank into order_.
  const auto sort_by_rank = [&](const std::vector<int>& in, int classes) {
    std::fill(count.begin(), count.begin() + classes + 1, 0);
    for (int p : in) ++count[rank[p] + 1];
    for (int c = 0; c < classes; ++c) count[c + 1] += count[c];
    for (int p : in) order_[count[rank[p]]++] = p;
  };
  // Renumbers the classes along order_; returns how many there are.
  const auto rerank = [&](const auto& same_class) {
    int classes = 0;
    for (int k = 0; k < n; ++k) {
      if (k == 0 || !same_class(order_[k - 1], order_[k])) ++classes;
      next[order_[k]] = classes - 1;
    }
    rank.swap(next);
    return classes;
  };
  // Round 0: one class per symbol, separators by string id before bytes.
  for (int i = 0; i < n; ++i) {
    rank[i] = text_[i] < 0 ? text_[i] - kSeparatorBase
                           : num_strings_ + text_[i];
    by_second[i] = i;
  }
  sort_by_rank(by_second, num_strings_ + 256);
  int classes = rerank([&](int a, int b) { return text_[a] == text_[b]; });
  for (int h = 1; classes < n; h *= 2) {
    // Order by the second half first: suffixes without one come first.
    by_second.clear();
    for (int i = n - h; i < n; ++i) by_second.push_back(i);
    for (int s : order_) {
      if (s >= h) by_second.push_back(s - h);
    }
    sort_by_rank(by_second, classes);
    const auto second = [&](int s) { return s + h < n ? rank[s + h] : -1; };
    classes = rerank([&](int a, int b) {
      return rank[a] == rank[b] && second(a) == second(b);
    });
  }
  Index();
}

void GeneralizedSuffixArray::Index() {
  first_.fill(0);
  for (int32_t symbol : text_) {
    if (symbol >= 0) ++first_[static_cast<size_t>(symbol) + 1];
  }
  first_[0] = num_strings_;
  for (size_t c = 0; c < 256; ++c) first_[c + 1] += first_[c];
  pos_string_id_.resize(text_.size());
  int id = 0;
  for (size_t i = 0; i < text_.size(); ++i) {
    pos_string_id_[i] = id;
    if (text_[i] < 0) ++id;
  }
  built_ = true;
}

std::vector<BlockingCandidate> GeneralizedSuffixArray::TopL(
    std::string_view q, int l, int max_leaves_per_probe) const {
  std::vector<BlockingCandidate> result;
  TopL(q, l, max_leaves_per_probe, &result);
  return result;
}

void GeneralizedSuffixArray::TopL(std::string_view q, int l,
                                  int max_leaves_per_probe,
                                  std::vector<BlockingCandidate>* out) const {
  UC_CHECK(built_);
  std::vector<BlockingCandidate>& result = *out;
  result.clear();
  if (l <= 0 || q.empty()) return;

  // For each starting offset of q, narrow the range of suffixes that start
  // with q[start, start + depth) one query symbol at a time. A string whose
  // longest common substring with q (starting at this offset) has length m
  // has a suffix in the range at every depth up to m, so each maximal range
  // is recorded once, with the deepest depth that still selects it. The
  // suffixes inside a range share `depth` query bytes, so text_[s + depth]
  // is in bounds and sorted across the range.
  //
  // All probe-internal scratch is thread-local: TopL runs once per distinct
  // probed value (blocking-memo misses and the memo-off ablation), and the
  // per-call vector churn was a measured top allocation item.
  struct Probe {
    int begin;  // [begin, end) of order_
    int end;
    int depth;  // matched length
  };
  static thread_local std::vector<Probe> probes;
  probes.clear();
  for (size_t start = 0; start < q.size(); ++start) {
    const size_t c0 = static_cast<size_t>(SymbolFor(q[start]));
    auto begin = order_.begin() + first_[c0];
    auto end = order_.begin() + first_[c0 + 1];
    for (size_t depth = 1; begin != end; ++depth) {
      auto next_begin = end;
      auto next_end = end;
      if (start + depth < q.size()) {
        const int32_t c = SymbolFor(q[start + depth]);
        const auto symbol = [&](int s) { return text_[s + depth]; };
        next_begin = std::partition_point(
            begin, end, [&](int s) { return symbol(s) < c; });
        next_end = std::partition_point(
            next_begin, end, [&](int s) { return symbol(s) <= c; });
      }
      if (next_begin != begin || next_end != end) {
        probes.push_back(Probe{static_cast<int>(begin - order_.begin()),
                               static_cast<int>(end - order_.begin()),
                               static_cast<int>(depth)});
      }
      begin = next_begin;
      end = next_end;
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
  if (best_score.size() < static_cast<size_t>(num_strings_)) {
    best_score.resize(static_cast<size_t>(num_strings_), 0);
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
    const int take = std::min(max_leaves_per_probe, p.end - p.begin);
    for (int k = p.begin; k < p.begin + take; ++k) {
      const int sid = pos_string_id_[static_cast<size_t>(order_[k])];
      if (best_score[static_cast<size_t>(sid)] != 0) continue;
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
  if (static_cast<int>(result.size()) > l) {
    result.resize(static_cast<size_t>(l));
  }
}

}  // namespace similarity
}  // namespace uniclean
