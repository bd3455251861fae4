// MatchEnvironment: the session-scoped record-matching state shared by every
// cleaning phase. The paper's unified framework interleaves matching and
// repairing, so cRepair (§5), eRepair (§6) and hRepair (§7) all probe the
// same MDs against the same static master relation — yet historically each
// engine built its own MdMatcher (suffix array + equality index) and re-warmed
// its own memo caches per run, paying the §5.2 index cost three times per
// pipeline. A MatchEnvironment is scoped to a (rule set, master relation)
// pair instead: it builds each MD's matcher exactly once and owns the
// similarity / blocking / match memos, which — because cell values are
// interned ids in the process-wide StringPool — stay valid across phases
// *and* across successive data relations cleaned against the same master
// (the warm serving scenario; see uniclean::Session::Run).
//
// Lifetime: the environment borrows `rules` and `master`; both must outlive
// it. The rules must never be mutated; the master may only grow by appends,
// and only while no session runs — after appending, call
// RefreshMasterAppend() (with exclusive access) to fold the new tuples into
// the indexes. Until then probes see the master as of the last refresh.
//
// Thread safety: after construction the environment is an immutable
// artifact plus internally synchronized memos — matcher() and every
// MdMatcher probe are safe from any number of threads, which is what lets
// one warm environment serve concurrent uniclean::Session runs (see
// uniclean::CleanEngine).

#ifndef UNICLEAN_CORE_MATCH_ENVIRONMENT_H_
#define UNICLEAN_CORE_MATCH_ENVIRONMENT_H_

#include <memory>
#include <vector>

#include "core/md_matcher.h"
#include "data/relation.h"
#include "rules/ruleset.h"

namespace uniclean {
namespace snapshot {
class Codec;  // snapshot/codec.h: persists / restores the environment
}  // namespace snapshot
namespace core {

class MatchEnvironment {
 public:
  /// Builds one MdMatcher per MD rule of `rules` over `master`, eagerly, so
  /// construction time is the whole index-build cost (benches report it
  /// separately from repair time). CFD rule ids get no matcher.
  MatchEnvironment(const rules::RuleSet& rules, const data::Relation& master,
                   const MdMatcherOptions& options = {});

  // Matchers are held behind stable unique_ptrs; moving the environment
  // keeps every matcher reference handed out so far valid.
  MatchEnvironment(MatchEnvironment&&) = default;
  MatchEnvironment& operator=(MatchEnvironment&&) = default;
  MatchEnvironment(const MatchEnvironment&) = delete;
  MatchEnvironment& operator=(const MatchEnvironment&) = delete;

  const rules::RuleSet& rules() const { return *rules_; }
  const data::Relation& master() const { return *master_; }
  const MdMatcherOptions& matcher_options() const { return options_; }

  /// The shared matcher of an MD rule, or null when `rule` is a CFD. The
  /// returned matcher is owned by the environment and stays valid for the
  /// environment's lifetime.
  const MdMatcher* matcher(rules::RuleId rule) const {
    return matchers_[static_cast<size_t>(rule)].get();
  }

  /// Number of matchers this environment built (== number of MD rules).
  int num_matchers() const { return num_matchers_; }

  /// Master tuples covered by the matchers' indexes: master().size() at
  /// construction, catching up on RefreshMasterAppend(). Falls behind when
  /// the caller appends tuples to the (caller-owned) master relation.
  int indexed_master_size() const { return indexed_master_size_; }

  /// Folds master tuples appended since construction (or the previous
  /// refresh) into every matcher's indexes (see MdMatcher::AppendMaster):
  /// equality indexes and all-master lists grow incrementally, suffix arrays
  /// are rebuilt, match/blocking memos are dropped, similarity memos
  /// survive. Requires exclusive access — no Session may be running against
  /// this environment and no references into its memos may be live. The
  /// master must only have grown by appends; indexed tuples must be
  /// unchanged. Returns the number of newly indexed master tuples.
  int RefreshMasterAppend();

  /// Aggregated memo statistics across every matcher of the environment:
  /// resident entries, a bytes estimate, hit/miss counters and the number
  /// of results refused admission past MdMatcherOptions::memo_capacity.
  /// Safe to call while sessions are running (counters are atomics; the
  /// entry walk briefly locks each memo shard).
  core::MemoStats MemoStats() const;

 private:
  // snapshot::Codec restores an environment from a snapshot: the tag
  // constructor binds rules/master/options without building any matcher;
  // the codec then installs one deserialized matcher per MD section.
  friend class ::uniclean::snapshot::Codec;
  struct RestoreTag {};
  MatchEnvironment(const rules::RuleSet& rules, const data::Relation& master,
                   const MdMatcherOptions& options, RestoreTag)
      : rules_(&rules),
        master_(&master),
        options_(options),
        indexed_master_size_(master.size()) {
    matchers_.resize(static_cast<size_t>(rules.num_rules()));
  }

  const rules::RuleSet* rules_;
  const data::Relation* master_;
  MdMatcherOptions options_;
  std::vector<std::unique_ptr<MdMatcher>> matchers_;  // indexed by rule id
  int num_matchers_ = 0;
  int indexed_master_size_ = 0;  // see RefreshMasterAppend()
};

}  // namespace core
}  // namespace uniclean

#endif  // UNICLEAN_CORE_MATCH_ENVIRONMENT_H_
