// The violation groups of the variable CFDs, kept across the fixpoint passes
// of one eRepair or hRepair run: §6.3's HTab and §7's conflict groups. A
// vCFD X -> B groups the live tuples that match its LHS pattern by their X
// values. Each group keeps two member lists in ascending tuple order: the
// tuples with a non-null B ("valued") and, for hRepair, the tuples whose B
// is a null it may still enrich.
//
// A rule's groups are built on its first resolution. Later resolutions
// refile only the tuples the run touched since the rule's previous
// resolution began, and mark both the group a tuple left and the group it
// joined dirty. A resolution examines the dirty groups only. A clean
// group's members are in exactly the state its last examination saw (every
// change to a tuple, and to the equivalence class of any of its cells,
// touches it), and that examination changed nothing, or the change would
// have dirtied the group. So examining it again would change nothing and
// count the same again: the engines add each clean group's last counter
// contribution (its Tally) instead.
//
// The index also keeps the run's touch clock, which the other rules read
// too: an MD resolution re-probes only the tuples touched in this pass or
// the previous one, and a constant-CFD scan (BeginScan) re-examines only the
// tuples touched since the rule's previous scan began. A constant-CFD
// violation depends on its own tuple alone, so an untouched tuple would
// come out of the scan as it did last time.
//
// Everything is flat arrays over tuple ids and dense group ids, freed with
// the run: a GroupKeyTable from LHS key to group id, and intrusive doubly
// linked member lists.

#ifndef UNICLEAN_CORE_VCFD_GROUPS_H_
#define UNICLEAN_CORE_VCFD_GROUPS_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "core/group_key_table.h"
#include "data/relation.h"
#include "rules/ruleset.h"

namespace uniclean {
namespace core {

class VcfdGroups {
 public:
  using GroupId = GroupKeyTable::GroupId;

  /// Which member list of its LHS group a tuple belongs to under one vCFD.
  enum class Slot : uint8_t { kNone, kValued, kNull };

  /// The counters a group's last examination added to the run's statistics.
  struct Tally {
    int resolved = 0;   // eRepair: resolved by entropy
    int skipped = 0;    // eRepair: left alone, entropy >= δ2
    int anomalies = 0;  // hRepair: conflicts with no feasible resolution
  };

  /// Groups the variable CFDs of `rules` over `d`, whose size must not
  /// change while the index lives.
  VcfdGroups(const data::Relation& d, const rules::RuleSet& rules);

  VcfdGroups(const VcfdGroups&) = delete;
  VcfdGroups& operator=(const VcfdGroups&) = delete;

  /// Starts a fixpoint pass.
  void BeginPass();

  /// Records that some cell of `t` changed. While a resolution is open and
  /// t's group in it is still clean, the group is dirtied: it is queued
  /// when its first valued member comes after the group Next() returned
  /// last, and otherwise only listed in visited() (the resolution already
  /// passed it, and replays its tally).
  void Touch(data::TupleId t);

  /// Whether `t` was touched in this pass or the previous one.
  bool TouchedSincePreviousPass(data::TupleId t) const {
    return TouchedSince(t, previous_pass_start_);
  }

  /// Starts a scan of constant CFD `rule` and returns the clock at the
  /// start of its previous scan (0 before the first, when every tuple is
  /// TouchedSince it). No resolution may be open.
  uint32_t BeginScan(rules::RuleId rule);

  /// Whether `t` was touched at or after clock `since`.
  bool TouchedSince(data::TupleId t, uint32_t since) const {
    return touched_at_[static_cast<size_t>(t)] >= since;
  }

  /// Opens a resolution of vCFD `rule`: builds its groups on the first
  /// call, otherwise refiles the tuples touched since its previous Open.
  /// `slot_of(t)` says where a live tuple files. Every dirty group is listed
  /// in visited() with its tally cleared, and queued for Next() when it has
  /// a valued member.
  template <typename SlotOf>
  void Open(rules::RuleId rule, const SlotOf& slot_of) {
    const uint32_t since = OpenRule(rule);
    for (data::TupleId t = 0; t < d_.size(); ++t) {
      if (!TouchedSince(t, since)) continue;
      Refile(t, d_.live(t) ? slot_of(t) : Slot::kNone);
    }
    QueueVisited();
  }

  /// The next queued group of the open resolution in ascending order of
  /// first valued member, or -1.
  GroupId Next();

  /// Groups examined by the open resolution: dirty at Open or dirtied
  /// since. Unordered.
  const std::vector<GroupId>& visited() const { return visited_; }

  /// Records group `g`'s counter contribution from this examination.
  void SetTally(GroupId g, const Tally& tally);

  /// The open rule's contribution: the sum of its groups' tallies.
  const Tally& tally_sum() const { return open_->tally_sum; }

  /// Ends the open resolution.
  void Close();

  /// Member lists of the open rule's group `g`: the first member (-1 when
  /// empty), then next() until -1.
  data::TupleId first_valued(GroupId g) const {
    return group(g).head[kValuedList];
  }
  data::TupleId first_null(GroupId g) const {
    return group(g).head[kNullList];
  }
  data::TupleId next(data::TupleId t) const {
    return open_->next[static_cast<size_t>(t)];
  }

 private:
  static constexpr int kValuedList = 0;
  static constexpr int kNullList = 1;

  struct Group {
    data::TupleId head[2] = {-1, -1};  // per list: smallest member
    data::TupleId tail[2] = {-1, -1};  // per list: largest member
    Tally tally;
    bool visited = false;  // dirty in the open resolution
  };

  /// One vCFD's groups.
  struct RuleGroups {
    std::vector<data::AttributeId> lhs;
    // Clock at the last Open (BeginScan for a constant CFD, which uses no
    // other field); 0 before the first.
    uint32_t opened_at = 0;
    // Per tuple.
    std::vector<GroupId> group_of;  // -1: in no group
    std::vector<Slot> slot;
    std::vector<data::TupleId> next;
    std::vector<data::TupleId> prev;
    // Per group: the LHS key, and the lists.
    GroupKeyTable keys;
    std::vector<Group> groups;
    Tally tally_sum;
  };

  const Group& group(GroupId g) const {
    return open_->groups[static_cast<size_t>(g)];
  }

  /// Starts resolution bookkeeping for `rule` and returns the clock value
  /// at its previous Open (0 on the first: every tuple is filed).
  uint32_t OpenRule(rules::RuleId rule);
  /// Ticks the clock into `r.opened_at` and returns the value it replaced.
  uint32_t Restamp(RuleGroups& r);
  void Refile(data::TupleId t, Slot slot);
  void QueueVisited();
  /// Lists `g` in visited() unless it already is.
  void MarkVisited(GroupId g);
  void Link(data::TupleId t, GroupId g, Slot slot);
  void Unlink(data::TupleId t);

  const data::Relation& d_;
  const rules::RuleSet& rules_;
  std::vector<RuleGroups> by_rule_;  // indexed by rule id

  uint32_t clock_ = 0;  // ticks at every BeginPass and Open
  uint32_t pass_start_ = 0;
  uint32_t previous_pass_start_ = 0;
  std::vector<uint32_t> touched_at_;  // per tuple: clock at its last touch

  // The open resolution.
  RuleGroups* open_ = nullptr;
  data::TupleId current_ = -1;  // first valued member of Next()'s last group
  std::vector<GroupId> visited_;
  std::priority_queue<std::pair<data::TupleId, GroupId>,
                      std::vector<std::pair<data::TupleId, GroupId>>,
                      std::greater<>>
      queue_;
};

}  // namespace core
}  // namespace uniclean

#endif  // UNICLEAN_CORE_VCFD_GROUPS_H_
