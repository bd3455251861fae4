// MatchEnvironment: the session-scoped record-matching state shared by every
// cleaning phase. The paper's unified framework interleaves matching and
// repairing, so cRepair (§5), eRepair (§6) and hRepair (§7) all probe the
// same MDs against the same static master relation — yet historically each
// engine built its own MdMatcher (suffix array + equality index) and re-warmed
// its own memo caches per run, paying the §5.2 index cost three times per
// pipeline. A MatchEnvironment is scoped to a (rule set, master relation)
// pair instead: it builds each matcher exactly once and owns the blocking
// and match-list memos, which — because cell values are interned ids in the
// process-wide StringPool — stay valid across phases *and* across
// successive data relations cleaned against the same master (the warm
// serving scenario; see uniclean::Session::Run).
//
// One matcher per distinct premise, not per rule: §2.2 normalization splits
// an MD into one MD per action, and a matcher reads only its MD's premise,
// so the normalized MDs whose premises are equal clause by clause (in
// order; rules::MdClause::operator==) share one matcher — one index, one
// set of memos. A match list is a pure function of the premise projection,
// so sharing cannot change a result.
//
// Within one run the phases do not probe the shared memos again for a
// tuple whose premise has not changed: a core::RunMatchTable, which
// uniclean::Session builds per pipeline run and hands to cRepair, eRepair
// and hRepair, keeps per (distinct matcher, data tuple) the premise's value
// ids at the last probe and the memo-resident list that probe returned, and
// answers again while the tuple's ids are those ids. The list is a pure
// function of those ids, and a memo entry is never erased, so the answer is
// the one the memo would give. A list the matcher served from per-thread
// scratch (memos off, or admission refused past the cap) is never kept: the
// next probe of that tuple goes to the matcher again, as it did before the
// table. The table is per run because a run's fixes keep rewriting premise
// cells; across runs the shared memo already holds every list.
//
// Lifetime: the environment borrows `rules` and `master`; both must outlive
// it and must not change while it lives — the indexes and memos are built
// once over the master as it stood at construction.
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
  /// Builds one MdMatcher per distinct MD premise of `rules` over `master`,
  /// eagerly, so construction time is the whole index-build cost (benches
  /// report it separately from repair time). CFD rule ids get no matcher.
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

  /// The shared matcher of an MD rule, or null when `rule` is a CFD.
  /// matcher(a) == matcher(b) exactly when MD rules a and b have equal
  /// premises. The returned matcher is owned by the environment and stays
  /// valid for the environment's lifetime.
  const MdMatcher* matcher(rules::RuleId rule) const {
    const int slot = matcher_index(rule);
    return slot < 0 ? nullptr : matchers_[static_cast<size_t>(slot)].get();
  }

  /// The index of matcher(rule) in [0, num_matchers()), or -1 for a CFD.
  int matcher_index(rules::RuleId rule) const {
    return matcher_slot_[static_cast<size_t>(rule)];
  }

  /// Number of distinct matchers: one per distinct MD premise, so at most
  /// the number of MD rules.
  int num_matchers() const { return static_cast<int>(matchers_.size()); }

  /// Aggregated memo statistics across the environment's matchers, each
  /// counted once however many rules share it:
  /// resident entries, a bytes estimate, hit/miss counters and the number
  /// of results refused admission past MdMatcherOptions::memo_capacity.
  /// Safe to call while sessions are running (counters are atomics; the
  /// entry walk briefly locks each memo shard).
  core::MemoStats MemoStats() const;

 private:
  // snapshot::Codec restores an environment from a snapshot: the tag
  // constructor binds rules/master/options and groups the rules without
  // building any matcher; the codec then installs one deserialized matcher
  // per slot, from the sections filed under the slot's owner.
  friend class ::uniclean::snapshot::Codec;
  struct RestoreTag {};
  MatchEnvironment(const rules::RuleSet& rules, const data::Relation& master,
                   const MdMatcherOptions& options, RestoreTag);

  // The one place that decides which MD rules share a matcher: rules with
  // equal premises do. Fills matcher_slot_ and owners_, and sizes
  // matchers_ to one empty slot per distinct premise. Both constructors
  // call it, so a cold build and a snapshot restore cannot disagree.
  void GroupRulesByPremise();

  const rules::RuleSet* rules_;
  const data::Relation* master_;
  MdMatcherOptions options_;
  std::vector<std::unique_ptr<MdMatcher>> matchers_;  // one per premise
  std::vector<int> matcher_slot_;  // by rule id: index into matchers_, or -1
  std::vector<rules::RuleId> owners_;  // by slot: lowest rule id of the group
};

/// The match lists one pipeline run has probed over one data relation (see
/// the file comment): per (distinct matcher, tuple), the premise's value ids
/// at the tuple's last probe and the memo-resident list it got back. Flat
/// arrays, allocated per matcher on its first probe and freed with the run.
/// Not thread-safe: one run, one thread.
class RunMatchTable {
 public:
  /// An empty table for probing the tuples of `d` against `env`'s matchers.
  /// Both must outlive the table, and `d` must keep its size; its values
  /// may change freely.
  RunMatchTable(const MatchEnvironment& env, const data::Relation& d);

  RunMatchTable(const RunMatchTable&) = delete;
  RunMatchTable& operator=(const RunMatchTable&) = delete;

  const MatchEnvironment& env() const { return env_; }
  const data::Relation& relation() const { return d_; }

  /// env().matcher(rule)->Matches(relation().tuple(t)) for an MD rule,
  /// answered from the table while t's premise ids are unchanged.
  const std::vector<data::TupleId>& Matches(rules::RuleId rule,
                                            data::TupleId t);

  /// env().matcher(rule)->FindFirstMatch(relation().tuple(t)).
  data::TupleId FindFirstMatch(rules::RuleId rule, data::TupleId t);

 private:
  /// One distinct matcher's probes.
  struct Row {
    const MdMatcher* matcher = nullptr;  // null until the first probe
    std::vector<data::AttributeId> attrs;  // the premise's data attributes
    std::vector<data::ValueId> ids;        // per tuple: attrs.size() ids
    // Per tuple: the memo-resident list of its last probe, or null.
    std::vector<const std::vector<data::TupleId>*> lists;
  };

  const MatchEnvironment& env_;
  const data::Relation& d_;
  std::vector<Row> rows_;  // by matcher index
};

}  // namespace core
}  // namespace uniclean

#endif  // UNICLEAN_CORE_MATCH_ENVIRONMENT_H_
