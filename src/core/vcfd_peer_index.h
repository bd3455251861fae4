// The violation-group peers of a tracked relation, kept for as long as a
// tracked session lives (uniclean::Session::ApplyDelta): for each variable
// CFD X -> B, the live tuples grouped by their X values, as eRepair's HTab
// (§6.3) and hRepair's conflict groups (§7) group them. A tuple is filed
// under two keys per vCFD: its current (repaired) LHS values and, when they
// differ, its pristine ones, because repair coupling flows through either:
// the batch pipeline groups on pristine values early and on repaired values
// late. Unlike VcfdGroups, which serves one phase run, a group here is a
// set of tuples: no member order, no RHS slots, no dirtiness.
//
// Flat arrays per vCFD: a GroupKeyTable from LHS key to dense group id, the
// first member of each group, and two nodes per tuple id (node 2t for its
// current key, 2t + 1 for its pristine key) threaded into intrusive doubly
// linked member lists. Refiling a tuple relinks only the nodes whose keys
// moved, and readers follow stored group ids instead of hashing keys. An
// emptied group keeps its id until emptied groups outnumber the vCFD's
// filings; the vCFD's groups are then renumbered without them, so a vCFD
// never holds more than twice as many groups as filings.

#ifndef UNICLEAN_CORE_VCFD_PEER_INDEX_H_
#define UNICLEAN_CORE_VCFD_PEER_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/group_key_table.h"
#include "data/group_key.h"
#include "data/relation.h"
#include "rules/ruleset.h"

namespace uniclean {
namespace core {

class VcfdPeerIndex {
 public:
  using GroupId = GroupKeyTable::GroupId;

  /// Which key of a tuple a filing is under.
  enum Side : int { kCurrent = 0, kPristine = 1 };

 private:
  /// One filing: a tuple's key under one vCFD, linked into its group.
  struct Node {
    GroupId group = -1;  // -1 when not filed
    int32_t next = -1;
    int32_t prev = -1;
  };

 public:
  /// The members of one group, in no particular order.
  class Members {
   public:
    class Iterator {
     public:
      data::TupleId operator*() const { return node_ / 2; }
      Iterator& operator++() {
        node_ = nodes_[static_cast<size_t>(node_)].next;
        return *this;
      }
      bool operator!=(const Iterator& o) const { return node_ != o.node_; }

     private:
      friend class Members;
      Iterator(const Node* nodes, int32_t node)
          : nodes_(nodes), node_(node) {}
      const Node* nodes_;
      int32_t node_;
    };
    Iterator begin() const { return Iterator(nodes_, head_); }
    Iterator end() const { return Iterator(nodes_, -1); }

   private:
    friend class VcfdPeerIndex;
    Members(const Node* nodes, int32_t head)
        : nodes_(nodes), head_(head) {}
    const Node* nodes_;
    int32_t head_;
  };

  /// An index over no vCFDs; files nothing.
  VcfdPeerIndex() = default;

  /// An empty index over the variable CFDs of `rules`.
  explicit VcfdPeerIndex(const rules::RuleSet& rules);

  /// Files tuple `t`, whose current content is `current` and pristine
  /// content `pristine`, exactly as a fresh index would: under every vCFD,
  /// in the group of current's LHS key and, when it differs, in the group
  /// of pristine's. Relinks only the filings whose keys moved; `t` may be
  /// filed already or new (ids beyond every filed one grow the index).
  void File(data::TupleId t, const data::Tuple& current,
            const data::Tuple& pristine);

  /// Removes `t` from every group.
  void Unfile(data::TupleId t);

  /// Whether `a` and `b` have the same LHS key under every vCFD.
  bool SameKeys(const data::Tuple& a, const data::Tuple& b) const;

  size_t num_vcfds() const { return vcfds_.size(); }

  /// The rule id of vCFD `i`.
  rules::RuleId rule(size_t i) const { return vcfds_[i].rule; }

  /// The group `t` is filed in under vCFD `i` on `side`, or -1.
  GroupId group_of(size_t i, data::TupleId t, Side side) const {
    const size_t node = 2 * static_cast<size_t>(t) + side;
    const std::vector<Node>& nodes = vcfds_[i].nodes;
    return node < nodes.size() ? nodes[node].group : -1;
  }

  /// The group of `key` under vCFD `i` (possibly emptied), or -1 when no
  /// filing has had that key since the vCFD's groups were last renumbered.
  GroupId Find(size_t i, const data::GroupKey& key) const;

  /// The members of group `g` of vCFD `i` (g >= 0).
  Members members(size_t i, GroupId g) const {
    const Vcfd& v = vcfds_[i];
    return Members(v.nodes.data(), v.head[static_cast<size_t>(g)]);
  }

  /// Calls fn(i, g) for every filing of `t`: vCFD by vCFD, current side
  /// first.
  template <typename Fn>
  void ForEachGroupOf(data::TupleId t, const Fn& fn) const {
    for (size_t i = 0; i < vcfds_.size(); ++i) {
      for (Side side : {kCurrent, kPristine}) {
        const GroupId g = group_of(i, t, side);
        if (g >= 0) fn(i, g);
      }
    }
  }

  /// Groups of vCFD `i`, including emptied ones not yet dropped.
  size_t num_groups(size_t i) const {
    return static_cast<size_t>(vcfds_[i].keys.size());
  }

  /// Filings under vCFD `i`: tuples filed, plus those filed twice.
  size_t num_filings(size_t i) const {
    return static_cast<size_t>(vcfds_[i].filings);
  }

 private:
  /// One vCFD's groups.
  struct Vcfd {
    rules::RuleId rule = 0;
    std::vector<data::AttributeId> lhs;
    GroupKeyTable keys;
    std::vector<int32_t> head;  // per group: first member node, -1 if none
    std::vector<Node> nodes;    // per node: 2t current, 2t + 1 pristine
    int32_t live_groups = 0;    // groups with a member
    int32_t filings = 0;        // filed nodes
  };

  /// Files `node` in the group of `key`, unless it is there already.
  static void Place(Vcfd& v, size_t node, const data::GroupKey& key);
  static void Link(Vcfd& v, size_t node, GroupId g);
  /// Unlinks `node` when it is filed.
  static void Remove(Vcfd& v, size_t node);
  /// Renumbers v's groups without the empty ones once they outnumber its
  /// filings.
  static void MaybeCompact(Vcfd& v);

  std::vector<Vcfd> vcfds_;
  std::vector<data::AttributeId> key_attributes_;  // every vCFD's LHS
};

}  // namespace core
}  // namespace uniclean

#endif  // UNICLEAN_CORE_VCFD_PEER_INDEX_H_
