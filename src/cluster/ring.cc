#include "cluster/ring.h"

#include <algorithm>
#include <utility>

namespace uniclean {
namespace cluster {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashKey(std::string_view key, uint64_t seed) {
  // FNV-1a folds the bytes, splitmix64 scrambles the (weak) FNV output so
  // near-identical keys ("r1"/"r2") land far apart on the ring.
  uint64_t h = 0xcbf29ce484222325ull ^ seed;
  for (char c : key) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return SplitMix64(h ^ seed);
}

Result<Ring> Ring::Make(std::vector<std::string> names, RingOptions options) {
  std::sort(names.begin(), names.end());
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i].empty()) {
      return Status::InvalidArgument("ring: replica name must be non-empty");
    }
    if (i > 0 && names[i] == names[i - 1]) {
      return Status::InvalidArgument("ring: duplicate replica '" + names[i] +
                                     "'");
    }
  }
  Ring ring;
  ring.options_ = options;
  if (ring.options_.vnodes_per_replica < 1) {
    ring.options_.vnodes_per_replica = 1;
  }
  ring.names_ = std::move(names);
  const int vnodes = ring.options_.vnodes_per_replica;
  ring.vnodes_.reserve(ring.names_.size() * static_cast<size_t>(vnodes));
  for (uint32_t r = 0; r < ring.names_.size(); ++r) {
    // A vnode's point depends only on (seed, replica name, vnode index) —
    // never on the replica's position in names_ — so a ring with one more
    // or one fewer replica keeps every other vnode exactly where it was.
    const uint64_t base = HashKey(ring.names_[r], ring.options_.seed);
    for (int v = 0; v < vnodes; ++v) {
      ring.vnodes_.push_back(
          {SplitMix64(base ^ (0x9e3779b97f4a7c15ull *
                              static_cast<uint64_t>(v + 1))),
           r});
    }
  }
  // Ties break by replica index, which is name order: names_ is sorted.
  std::sort(ring.vnodes_.begin(), ring.vnodes_.end(),
            [](const VNode& a, const VNode& b) {
              if (a.point != b.point) return a.point < b.point;
              return a.replica < b.replica;
            });
  return ring;
}

std::vector<std::string> Ring::Owners(std::string_view key, int count) const {
  std::vector<std::string> owners;
  if (vnodes_.empty() || count <= 0) return owners;
  const uint64_t point = HashKey(key, options_.seed);
  // First vnode clockwise from the key's point (wrapping past the top).
  size_t at = std::lower_bound(vnodes_.begin(), vnodes_.end(), point,
                               [](const VNode& v, uint64_t p) {
                                 return v.point < p;
                               }) -
              vnodes_.begin();
  std::vector<bool> taken(names_.size(), false);
  for (size_t step = 0;
       step < vnodes_.size() && owners.size() < static_cast<size_t>(count);
       ++step, ++at) {
    if (at == vnodes_.size()) at = 0;
    const uint32_t r = vnodes_[at].replica;
    if (taken[r]) continue;
    taken[r] = true;
    owners.push_back(names_[r]);
  }
  return owners;
}

std::string Ring::PrimaryOwner(std::string_view key) const {
  std::vector<std::string> owners = Owners(key, 1);
  return owners.empty() ? std::string() : owners.front();
}

}  // namespace cluster
}  // namespace uniclean
