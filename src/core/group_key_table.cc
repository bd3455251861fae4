#include "core/group_key_table.h"

namespace uniclean {
namespace core {

GroupKeyTable::GroupKeyTable(size_t width) : width_(width), slots_(16, -1) {}

size_t GroupKeyTable::Probe(const data::GroupKey& key, size_t hash) const {
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i] >= 0 && !KeyEquals(slots_[i], key)) i = (i + 1) & mask;
  return i;
}

GroupKeyTable::GroupId GroupKeyTable::Find(const data::GroupKey& key) const {
  return slots_[Probe(key, data::GroupKeyHash()(key))];
}

GroupKeyTable::GroupId GroupKeyTable::FindOrAdd(const data::GroupKey& key) {
  const size_t i = Probe(key, data::GroupKeyHash()(key));
  if (slots_[i] >= 0) return slots_[i];
  const GroupId g = size_++;
  keys_.insert(keys_.end(), key.parts, key.parts + key.size);
  // Keep the table at most half full.
  if (static_cast<size_t>(size_) * 2 > slots_.size()) {
    Grow();
  } else {
    slots_[i] = g;
  }
  return g;
}

data::GroupKey GroupKeyTable::key(GroupId g) const {
  data::GroupKey key;
  const size_t base = static_cast<size_t>(g) * width_;
  for (size_t i = 0; i < width_; ++i) key.Append(keys_[base + i]);
  return key;
}

void GroupKeyTable::Grow() {
  slots_.assign(slots_.size() * 2, -1);
  const size_t mask = slots_.size() - 1;
  for (GroupId g = 0; g < size_; ++g) {
    size_t i = data::GroupKeyHash()(key(g)) & mask;
    while (slots_[i] >= 0) i = (i + 1) & mask;
    slots_[i] = g;
  }
}

}  // namespace core
}  // namespace uniclean
