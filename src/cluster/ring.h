// Consistent-hash ring: deterministic ruleset -> replica ownership for the
// unicleand cluster (src/cluster/). Each replica contributes
// `vnodes_per_replica` virtual nodes whose positions are seeded splitmix64
// hashes of (replica name, vnode index); a ruleset's owners are the first R
// distinct replicas clockwise from the ruleset's own hash point. Properties
// the cluster relies on (pinned in cluster_test):
//
//  * Determinism — two Ring instances built from the same options and
//    replica names, in any order, answer every ownership query
//    identically, on any host. unicleanctl, the routing client and the
//    tests all build the ring independently and must agree.
//
//  * Minimal movement — a ring over N + 1 replicas assigns only ~1/(N+1)
//    of the keyspace differently from the ring over N of them (the slices
//    the extra replica's vnodes claim). Everything else keeps its owner,
//    which is what makes membership changes cheap for a fleet of warm
//    engines.
//
//  * Failover order — Owners(key, R) returns R distinct replicas; entry 0
//    is the primary, entries 1.. are the failover order the routing client
//    walks when the primary is down. The order is a pure function of the
//    key, so every client agrees on who takes over.
//
// The ring is an immutable value type (copyable, no locking), built once
// from its whole replica list: a membership change builds a new ring.

#ifndef UNICLEAN_CLUSTER_RING_H_
#define UNICLEAN_CLUSTER_RING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace uniclean {
namespace cluster {

/// splitmix64 — the same cheap deterministic mixer serve::Client uses for
/// retry jitter. Exposed so spec/tests can reproduce ring points.
uint64_t SplitMix64(uint64_t x);

/// Seeded FNV-1a-then-splitmix hash of a string; the ring's only hash.
uint64_t HashKey(std::string_view key, uint64_t seed);

struct RingOptions {
  /// Virtual nodes per replica. More vnodes = smoother balance and finer
  /// movement granularity at O(V log V) build cost, V = replicas x
  /// vnodes.
  int vnodes_per_replica = 64;
  /// Hash seed. All parties of one cluster must agree on it.
  uint64_t seed = 0x756e69636c65616eull;  // "uniclean"
};

class Ring {
 public:
  /// The ring over `names`, given in any order: the names are sorted once
  /// and every vnode is hashed and sorted once. InvalidArgument on an empty
  /// or repeated name.
  static Result<Ring> Make(std::vector<std::string> names,
                           RingOptions options = {});

  /// An empty ring: Owners() returns nothing.
  Ring() = default;

  /// Replica names, sorted (not ring order).
  const std::vector<std::string>& replicas() const { return names_; }
  int size() const { return static_cast<int>(names_.size()); }
  const RingOptions& options() const { return options_; }

  /// The first `count` distinct replicas clockwise from HashKey(key).
  /// Entry 0 is the primary; the rest are the failover order. Returns
  /// fewer than `count` when the ring has fewer replicas; empty on an
  /// empty ring.
  std::vector<std::string> Owners(std::string_view key, int count) const;
  /// Owners(key, 1) front, or "" on an empty ring.
  std::string PrimaryOwner(std::string_view key) const;

 private:
  struct VNode {
    uint64_t point;
    uint32_t replica;  // index into names_
  };

  RingOptions options_;
  std::vector<std::string> names_;  // sorted; indexes are VNode::replica
  std::vector<VNode> vnodes_;      // sorted by (point, replica name)
};

}  // namespace cluster
}  // namespace uniclean

#endif  // UNICLEAN_CLUSTER_RING_H_
