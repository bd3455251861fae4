// GroupKeyTable: the key half of a violation-group index. It maps the
// GroupKeys of one width (one vCFD's LHS projections) to dense group ids
// 0, 1, 2, ... in the order the keys were first added, and stores each
// group's key. Ids are never reused: a caller that wants to drop groups
// builds a new table from the keys it keeps.
//
// Open addressing with linear probing over group ids, kept at most half
// full and doubled when it would pass that; a probe compares stored value
// ids, and growing re-hashes the stored keys. Both the per-phase index of
// eRepair and hRepair (VcfdGroups) and a tracked session's index
// (VcfdPeerIndex) keep their keys here.

#ifndef UNICLEAN_CORE_GROUP_KEY_TABLE_H_
#define UNICLEAN_CORE_GROUP_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/group_key.h"
#include "data/string_pool.h"

namespace uniclean {
namespace core {

class GroupKeyTable {
 public:
  using GroupId = int32_t;

  /// An empty table for keys of `width` value ids.
  explicit GroupKeyTable(size_t width = 0);

  /// Number of groups (keys added so far).
  GroupId size() const { return size_; }

  /// The group of `key`, or -1 when it was never added.
  GroupId Find(const data::GroupKey& key) const;

  /// The group of `key`, added as group size() when new.
  GroupId FindOrAdd(const data::GroupKey& key);

  /// Whether group `g`'s key is `key`.
  bool KeyEquals(GroupId g, const data::GroupKey& key) const {
    const size_t base = static_cast<size_t>(g) * width_;
    for (size_t i = 0; i < width_; ++i) {
      if (keys_[base + i] != key.parts[i]) return false;
    }
    return true;
  }

  /// Group `g`'s key.
  data::GroupKey key(GroupId g) const;

 private:
  /// The slot holding `key`'s group, or the free slot where it would go.
  size_t Probe(const data::GroupKey& key, size_t hash) const;
  void Grow();

  size_t width_;
  GroupId size_ = 0;
  std::vector<data::ValueId> keys_;  // width_ per group
  std::vector<GroupId> slots_;       // a power of two long; -1 when free
};

}  // namespace core
}  // namespace uniclean

#endif  // UNICLEAN_CORE_GROUP_KEY_TABLE_H_
