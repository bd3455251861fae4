// MdMatcher: finds the master tuples whose MD premise holds with a data
// tuple. Equality clauses use a hash index on the master projection (keyed
// on interned value ids); when an MD has only similarity clauses, the §5.2
// suffix-array blocking retrieves the top-l master values by longest common
// substring (l = kTopL, the paper's constant) and only those candidates are
// verified — reducing the per-tuple cost from O(|Dm|) to O(l). Each
// candidate is verified with rules::Md::PremiseHolds; what is memoized is
// the outcome of a whole probe (the blocking candidates per probed value,
// the match list per premise projection), not of a single predicate. A
// brute-force mode exists for the blocking ablation bench.
//
// Thread safety: the matcher has no mutating operation. After construction
// the indexes are immutable and the memos are sharded behind striped locks
// (see core/sharded_memo.h), so any number of threads may call Matches /
// FindFirstMatch concurrently — the engine entry point concurrent
// uniclean::Session runs rely on. The master relation must not change while
// the matcher lives: every memoized result is a pure function of its key
// over that static master data, so cache sharing across threads cannot
// change outcomes. References returned by Matches() stay valid for the
// matcher's lifetime when they point into a memo; results that were refused
// admission (capacity cap, or use_memos = false) live in per-(thread,
// matcher) scratch valid until the same thread's next probe of the same
// matcher. A core::MatchEnvironment hands one matcher to every MD rule with
// the same premise, so "the same matcher" covers every such rule:
// env.matcher(a) == env.matcher(b) exactly when the premises of rules a and
// b are equal.

#ifndef UNICLEAN_CORE_MD_MATCHER_H_
#define UNICLEAN_CORE_MD_MATCHER_H_

#include <cstdint>
#include <vector>

#include "core/sharded_memo.h"
#include "data/group_key.h"
#include "data/relation.h"
#include "data/string_pool.h"
#include "rules/md.h"
#include "similarity/suffix_array.h"

namespace uniclean {
namespace snapshot {
class Codec;  // snapshot/codec.h: persists the matcher's built indexes
}  // namespace snapshot
namespace core {

/// Candidates retrieved per similarity probe: "we find that l <= 20
/// typically suffices" (§5.2).
inline constexpr int kTopL = 20;

struct MdMatcherOptions {
  /// When false, every master tuple is verified (ablation baseline).
  bool use_blocking = true;
  /// When false, the blocking and match-list memos are bypassed and every
  /// probe pays its full cost. Only the ablation benches turn this off, so
  /// they measure per-probe match cost rather than cache hits.
  bool use_memos = true;
  /// Caps the resident entries of each memo map (the match-list memo and
  /// the blocking memo are capped independently); 0 = unbounded. Past the
  /// cap new results are still computed but refused admission (counted as
  /// MemoStats::evictions), so handed-out references never dangle and a
  /// long-lived serving session's memory stops growing. See ROADMAP "memo
  /// growth in long-lived sessions".
  size_t memo_capacity = 0;
};

class MdMatcher {
 public:
  /// Builds the index for one normalized MD over the master relation.
  MdMatcher(const rules::Md& md, const data::Relation& dm,
            const MdMatcherOptions& options = {});

  MdMatcher(const MdMatcher&) = delete;
  MdMatcher& operator=(const MdMatcher&) = delete;

  /// Master tuple ids whose premise holds with `t`, ascending. Matching is
  /// a pure function of the premise projection's interned ids (the master
  /// data is static), so results are cached per projection: re-probing an
  /// unchanged tuple is a hash lookup. The returned reference is owned by
  /// the matcher's memo and stays valid until the matcher is destroyed —
  /// except with use_memos = false or past the memo capacity cap, where it
  /// points at per-(thread, matcher) scratch overwritten by the calling
  /// thread's next probe of *this* matcher, whichever rule it was fetched
  /// for (probing other matchers leaves it intact). Safe to call from any
  /// number of threads concurrently.
  const std::vector<data::TupleId>& Matches(const data::Tuple& t) const;

  /// First matching master tuple id, or -1.
  data::TupleId FindFirstMatch(const data::Tuple& t) const;

  /// The MD this matcher was built for. Only its premise is read, so a
  /// core::MatchEnvironment shares the matcher among every normalized MD
  /// with that premise; md() is the one with the lowest rule id.
  const rules::Md& md() const { return md_; }

  /// Aggregated statistics of this matcher's two memos (match lists and
  /// blocking candidates). Counters are live atomics; the entry/byte figures
  /// briefly lock each memo shard in turn.
  MemoStats memo_stats() const;

  /// Process-wide count of MdMatcher constructions (each construction pays
  /// the full index-build cost). Tests assert index sharing with it: a
  /// warm Session re-run must not move this counter.
  static uint64_t ConstructedCount();

 private:
  // snapshot::Codec restores a matcher from a snapshot section: the restore
  // constructor below sets up everything but the index (the codec then
  // re-derives the equality index or installs the deserialized suffix
  // order) and does not bump ConstructedCount() — a snapshot-warmed engine
  // deliberately reports zero index builds. The public constructor
  // delegates to it, then builds.
  friend class ::uniclean::snapshot::Codec;
  struct RestoreTag {};
  MdMatcher(const rules::Md& md, const data::Relation& dm,
            const MdMatcherOptions& options, RestoreTag);

  const std::vector<data::TupleId>& Candidates(const data::Tuple& t) const;
  /// Files every master tuple with no null equality-clause value under its
  /// equality-clause projection, in tuple order: O(|Dm|), so a cold build
  /// and a snapshot restore both derive the index from the master.
  void BuildEqualityIndex();
  /// Adds each distinct non-null master value of the blocking clause to
  /// suffix_array_, in tuple order, and records its owners in
  /// value_owners_ — the half of the index a cold build and a snapshot
  /// restore both derive from the master.
  void CollectBlockingValues();

  const rules::Md& md_;
  const data::Relation& dm_;
  MdMatcherOptions options_;

  // Equality-clause blocking: key over all equality clauses' master values.
  // Immutable after construction.
  std::vector<size_t> equality_clauses_;
  std::unordered_map<data::GroupKey, std::vector<data::TupleId>,
                     data::GroupKeyHash>
      equality_index_;

  // Similarity blocking (used when no equality clause exists): suffix array
  // over the distinct master values of the first similarity clause.
  // Immutable after construction.
  int blocking_clause_ = -1;
  similarity::GeneralizedSuffixArray suffix_array_;
  std::vector<std::vector<data::TupleId>> value_owners_;  // per string id

  // Memo of suffix-array blocking results per probed value id: TopL over the
  // static master index is a pure function of the probe string, and dirty
  // data re-probes the same (often duplicated) values constantly.
  ShardedMemo<data::ValueId, std::vector<data::TupleId>> blocking_cache_;

  // Memo of full match lists keyed by the premise projection of the data
  // tuple. References handed out by Matches() point into this map (node
  // stability; entries are never erased).
  ShardedMemo<data::GroupKey, std::vector<data::TupleId>, data::GroupKeyHash>
      match_cache_;

  // Materialized 0..|Dm|-1 (brute force / empty premise paths); built in
  // the constructor when one of those paths is configured, immutable after.
  std::vector<data::TupleId> all_masters_;
};

}  // namespace core
}  // namespace uniclean

#endif  // UNICLEAN_CORE_MD_MATCHER_H_
