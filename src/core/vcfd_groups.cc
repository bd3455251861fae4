#include "core/vcfd_groups.h"

#include "common/check.h"
#include "data/group_key.h"

namespace uniclean {
namespace core {

using data::TupleId;

VcfdGroups::VcfdGroups(const data::Relation& d, const rules::RuleSet& rules)
    : d_(d),
      rules_(rules),
      by_rule_(static_cast<size_t>(rules.num_rules())),
      touched_at_(static_cast<size_t>(d.size()), 0) {}

void VcfdGroups::BeginPass() {
  previous_pass_start_ = pass_start_;
  pass_start_ = ++clock_;
}

void VcfdGroups::Touch(TupleId t) {
  touched_at_[static_cast<size_t>(t)] = clock_;
  if (open_ == nullptr) return;
  const GroupId g = open_->group_of[static_cast<size_t>(t)];
  if (g < 0 || group(g).visited) return;
  MarkVisited(g);
  // A group the resolution already passed was examined in the state of its
  // last examination, and keeps that tally.
  const TupleId first = first_valued(g);
  if (first > current_) {
    SetTally(g, Tally{});
    queue_.emplace(first, g);
  }
}

uint32_t VcfdGroups::OpenRule(rules::RuleId rule) {
  UC_CHECK(open_ == nullptr);
  UC_CHECK(rules_.kind(rule) == rules::RuleKind::kVariableCfd);
  RuleGroups& r = by_rule_[static_cast<size_t>(rule)];
  if (r.opened_at == 0) {
    const size_t n = static_cast<size_t>(d_.size());
    r.lhs = rules_.cfd(rule).lhs();
    r.group_of.assign(n, -1);
    r.slot.assign(n, Slot::kNone);
    r.next.assign(n, -1);
    r.prev.assign(n, -1);
    r.keys = GroupKeyTable(r.lhs.size());
  }
  open_ = &r;
  current_ = -1;
  return Restamp(r);
}

uint32_t VcfdGroups::BeginScan(rules::RuleId rule) {
  UC_CHECK(open_ == nullptr);
  UC_CHECK(rules_.kind(rule) == rules::RuleKind::kConstantCfd);
  return Restamp(by_rule_[static_cast<size_t>(rule)]);
}

uint32_t VcfdGroups::Restamp(RuleGroups& r) {
  const uint32_t since = r.opened_at;
  r.opened_at = ++clock_;
  return since;
}

void VcfdGroups::Refile(TupleId t, Slot slot) {
  RuleGroups& r = *open_;
  const size_t ti = static_cast<size_t>(t);
  const GroupId old_group = r.group_of[ti];
  GroupId new_group = -1;
  if (slot != Slot::kNone) {
    const data::GroupKey key = data::GroupKey::Project(d_.tuple(t), r.lhs);
    new_group = old_group >= 0 && r.keys.KeyEquals(old_group, key)
                    ? old_group
                    : r.keys.FindOrAdd(key);
    if (new_group == static_cast<GroupId>(r.groups.size())) {
      r.groups.emplace_back();
    }
  }
  if (new_group != old_group || slot != r.slot[ti]) {
    if (old_group >= 0) {
      Unlink(t);
      MarkVisited(old_group);
    }
    if (new_group >= 0) Link(t, new_group, slot);
  }
  if (new_group >= 0) MarkVisited(new_group);
}

void VcfdGroups::QueueVisited() {
  for (GroupId g : visited_) {
    SetTally(g, Tally{});
    const TupleId first = first_valued(g);
    if (first >= 0) queue_.emplace(first, g);
  }
}

VcfdGroups::GroupId VcfdGroups::Next() {
  if (queue_.empty()) return -1;
  const auto [first, g] = queue_.top();
  queue_.pop();
  current_ = first;
  return g;
}

void VcfdGroups::SetTally(GroupId g, const Tally& tally) {
  Tally& old = open_->groups[static_cast<size_t>(g)].tally;
  Tally& sum = open_->tally_sum;
  sum.resolved += tally.resolved - old.resolved;
  sum.skipped += tally.skipped - old.skipped;
  sum.anomalies += tally.anomalies - old.anomalies;
  old = tally;
}

void VcfdGroups::Close() {
  // A queued group's tally was cleared for an examination it must get.
  UC_CHECK(queue_.empty());
  for (GroupId g : visited_) {
    open_->groups[static_cast<size_t>(g)].visited = false;
  }
  visited_.clear();
  queue_ = {};
  open_ = nullptr;
}

void VcfdGroups::MarkVisited(GroupId g) {
  Group& grp = open_->groups[static_cast<size_t>(g)];
  if (grp.visited) return;
  grp.visited = true;
  visited_.push_back(g);
}

void VcfdGroups::Link(TupleId t, GroupId g, Slot slot) {
  RuleGroups& r = *open_;
  Group& grp = r.groups[static_cast<size_t>(g)];
  const int list = slot == Slot::kValued ? kValuedList : kNullList;
  const size_t ti = static_cast<size_t>(t);
  r.group_of[ti] = g;
  r.slot[ti] = slot;
  // Builds append (tuples arrive in ascending order); a refiled tuple walks
  // to its place.
  TupleId after = grp.tail[list];
  while (after >= 0 && after > t) after = r.prev[static_cast<size_t>(after)];
  const TupleId before =
      after >= 0 ? r.next[static_cast<size_t>(after)] : grp.head[list];
  r.prev[ti] = after;
  r.next[ti] = before;
  if (after >= 0) {
    r.next[static_cast<size_t>(after)] = t;
  } else {
    grp.head[list] = t;
  }
  if (before >= 0) {
    r.prev[static_cast<size_t>(before)] = t;
  } else {
    grp.tail[list] = t;
  }
}

void VcfdGroups::Unlink(TupleId t) {
  RuleGroups& r = *open_;
  const size_t ti = static_cast<size_t>(t);
  Group& grp = r.groups[static_cast<size_t>(r.group_of[ti])];
  const int list = r.slot[ti] == Slot::kValued ? kValuedList : kNullList;
  const TupleId prev = r.prev[ti];
  const TupleId next = r.next[ti];
  if (prev >= 0) {
    r.next[static_cast<size_t>(prev)] = next;
  } else {
    grp.head[list] = next;
  }
  if (next >= 0) {
    r.prev[static_cast<size_t>(next)] = prev;
  } else {
    grp.tail[list] = prev;
  }
  r.group_of[ti] = -1;
  r.slot[ti] = Slot::kNone;
  r.next[ti] = -1;
  r.prev[ti] = -1;
}

}  // namespace core
}  // namespace uniclean
