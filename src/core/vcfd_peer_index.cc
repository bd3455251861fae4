#include "core/vcfd_peer_index.h"

#include <algorithm>

namespace uniclean {
namespace core {

VcfdPeerIndex::VcfdPeerIndex(const rules::RuleSet& rules) {
  for (rules::RuleId rule = 0; rule < rules.num_rules(); ++rule) {
    if (rules.kind(rule) != rules::RuleKind::kVariableCfd) continue;
    Vcfd v;
    v.rule = rule;
    v.lhs = rules.cfd(rule).lhs();
    v.keys = GroupKeyTable(v.lhs.size());
    for (data::AttributeId a : v.lhs) {
      if (std::find(key_attributes_.begin(), key_attributes_.end(), a) ==
          key_attributes_.end()) {
        key_attributes_.push_back(a);
      }
    }
    vcfds_.push_back(std::move(v));
  }
}

void VcfdPeerIndex::File(data::TupleId t, const data::Tuple& current,
                         const data::Tuple& pristine) {
  const size_t node = 2 * static_cast<size_t>(t);
  for (Vcfd& v : vcfds_) {
    if (v.nodes.size() < node + 2) v.nodes.resize(node + 2);
    const data::GroupKey key = data::GroupKey::Project(current, v.lhs);
    Place(v, node + kCurrent, key);
    const data::GroupKey pristine_key =
        data::GroupKey::Project(pristine, v.lhs);
    if (pristine_key == key) {
      Remove(v, node + kPristine);
    } else {
      Place(v, node + kPristine, pristine_key);
    }
    MaybeCompact(v);
  }
}

void VcfdPeerIndex::Unfile(data::TupleId t) {
  const size_t node = 2 * static_cast<size_t>(t);
  for (Vcfd& v : vcfds_) {
    if (v.nodes.size() < node + 2) continue;
    Remove(v, node + kCurrent);
    Remove(v, node + kPristine);
    MaybeCompact(v);
  }
}

bool VcfdPeerIndex::SameKeys(const data::Tuple& a,
                             const data::Tuple& b) const {
  for (data::AttributeId attr : key_attributes_) {
    if (a.value(attr) != b.value(attr)) return false;
  }
  return true;
}

VcfdPeerIndex::GroupId VcfdPeerIndex::Find(size_t i,
                                           const data::GroupKey& key) const {
  return vcfds_[i].keys.Find(key);
}

void VcfdPeerIndex::Place(Vcfd& v, size_t node, const data::GroupKey& key) {
  const GroupId filed = v.nodes[node].group;
  if (filed >= 0 && v.keys.KeyEquals(filed, key)) return;
  Remove(v, node);
  const GroupId g = v.keys.FindOrAdd(key);
  if (g == static_cast<GroupId>(v.head.size())) v.head.push_back(-1);
  Link(v, node, g);
}

void VcfdPeerIndex::Link(Vcfd& v, size_t node, GroupId g) {
  int32_t& head = v.head[static_cast<size_t>(g)];
  if (head < 0) {
    ++v.live_groups;
  } else {
    v.nodes[static_cast<size_t>(head)].prev = static_cast<int32_t>(node);
  }
  v.nodes[node] = Node{g, head, -1};
  head = static_cast<int32_t>(node);
  ++v.filings;
}

void VcfdPeerIndex::Remove(Vcfd& v, size_t node) {
  const Node n = v.nodes[node];
  if (n.group < 0) return;
  if (n.prev >= 0) {
    v.nodes[static_cast<size_t>(n.prev)].next = n.next;
  } else {
    v.head[static_cast<size_t>(n.group)] = n.next;
    if (n.next < 0) --v.live_groups;
  }
  if (n.next >= 0) v.nodes[static_cast<size_t>(n.next)].prev = n.prev;
  v.nodes[node] = Node{};
  --v.filings;
}

void VcfdPeerIndex::MaybeCompact(Vcfd& v) {
  if (v.keys.size() - v.live_groups <= v.filings) return;
  GroupKeyTable keys(v.lhs.size());
  std::vector<int32_t> head;
  std::vector<GroupId> renumbered(static_cast<size_t>(v.keys.size()), -1);
  for (GroupId g = 0; g < v.keys.size(); ++g) {
    if (v.head[static_cast<size_t>(g)] < 0) continue;
    renumbered[static_cast<size_t>(g)] = keys.FindOrAdd(v.keys.key(g));
    head.push_back(v.head[static_cast<size_t>(g)]);
  }
  for (Node& n : v.nodes) {
    if (n.group >= 0) n.group = renumbered[static_cast<size_t>(n.group)];
  }
  v.keys = std::move(keys);
  v.head = std::move(head);
}

}  // namespace core
}  // namespace uniclean
