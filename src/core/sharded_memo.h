// ShardedMemo: the concurrency primitive behind the MdMatcher memos. A
// memo entry is the result of a pure function of its key (a blocking
// candidate list or a full match list over the static master data), so the
// only thing a shared cache must guarantee under concurrent Session runs is
// data-race freedom — any interleaving of hits and inserts yields the same
// values. The map is split into kShards mutex-guarded shards keyed on a
// mixed hash of the interned-id key, so concurrent probes of different keys
// rarely contend and the critical section is a single hash lookup or
// insert.
//
// Entries are never erased or cleared — the master data they are computed
// over is static for the memo's whole life, so no entry goes stale — and
// handed-out pointers stay valid for the memo's lifetime (unordered_map
// node stability). Growth is bounded by an optional capacity cap enforced
// by *admission control* — once `entries() == capacity`, new results are
// still computed but refused admission (counted in MemoStats::evictions)
// instead of evicting a resident entry, which would dangle references.
// This is the eviction policy the long-lived serving scenario needs: the
// memo converges on the first `capacity` distinct keys and stops growing.

#ifndef UNICLEAN_CORE_SHARDED_MEMO_H_
#define UNICLEAN_CORE_SHARDED_MEMO_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "data/string_pool.h"

namespace uniclean {
namespace core {

/// Aggregate memo statistics; summed across memos (and across the matchers
/// of a MatchEnvironment) with operator+=.
struct MemoStats {
  /// Cached entries currently resident.
  uint64_t entries = 0;
  /// Rough footprint estimate: key + value payload + per-node bookkeeping.
  uint64_t bytes = 0;
  /// Lookups answered from the memo.
  uint64_t hits = 0;
  /// Lookups that had to compute their result.
  uint64_t misses = 0;
  /// Results refused admission because the capacity cap was reached.
  uint64_t evictions = 0;

  MemoStats& operator+=(const MemoStats& o) {
    entries += o.entries;
    bytes += o.bytes;
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    return *this;
  }
};

template <typename Key, typename Mapped, typename Hash = std::hash<Key>>
class ShardedMemo {
 public:
  /// `capacity` caps the number of resident entries; 0 means unbounded.
  explicit ShardedMemo(size_t capacity = 0) : capacity_(capacity) {}

  ShardedMemo(const ShardedMemo&) = delete;
  ShardedMemo& operator=(const ShardedMemo&) = delete;

  /// Looks up `key`. Returns a pointer to the cached value — stable until
  /// the memo is destroyed — or nullptr on a miss. Counts a hit or miss.
  const Mapped* Find(const Key& key) const {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return &it->second;
  }

  /// Admits (key, value) unless the cap is reached. Returns the resident
  /// entry — the inserted one, or the entry a concurrent inserter of the
  /// same key won with (`value` is left untouched then) — or nullptr when
  /// admission was refused, in which case the caller serves the result from
  /// its own scratch.
  const Mapped* Insert(const Key& key, Mapped&& value) const {
    return InsertWith(key, [&value]() -> Mapped&& { return std::move(value); });
  }

  /// Like Insert, but materializes the value via `make()` only after
  /// admission is granted — so a capped memo in steady state (every insert
  /// refused) costs no value construction per miss. `make()` runs under the
  /// shard lock; keep it to a move or a copy.
  template <typename MakeFn>
  const Mapped* InsertWith(const Key& key, MakeFn&& make) const {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) return &it->second;
    if (capacity_ != 0) {
      // Strict cap: reserve a slot before inserting; back out on overflow so
      // entries() never exceeds capacity() even under concurrent admission
      // into different shards.
      if (entries_.fetch_add(1, std::memory_order_relaxed) >= capacity_) {
        entries_.fetch_sub(1, std::memory_order_relaxed);
        evictions_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
      }
    } else {
      entries_.fetch_add(1, std::memory_order_relaxed);
    }
    return &shard.map.emplace(key, make()).first->second;
  }

  size_t entries() const {
    return static_cast<size_t>(entries_.load(std::memory_order_relaxed));
  }
  size_t capacity() const { return capacity_; }

  /// Visits every resident entry as `fn(key, mapped)`, one shard at a time
  /// under that shard's lock (keep `fn` cheap and lock-free). Entry order is
  /// unspecified. Concurrent inserts into a not-yet-visited shard may or may
  /// not be seen; for an exact enumeration (e.g. snapshot serialization)
  /// the caller must quiesce writers.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [key, mapped] : shard.map) fn(key, mapped);
    }
  }

  /// Counter snapshot plus a footprint estimate:
  /// `entry_bytes(key, mapped)` returns the payload size of one entry.
  template <typename EntryBytesFn>
  MemoStats Stats(EntryBytesFn&& entry_bytes) const {
    MemoStats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      stats.entries += shard.map.size();
      for (const auto& [key, mapped] : shard.map) {
        stats.bytes += entry_bytes(key, mapped) + kNodeOverheadBytes;
      }
    }
    return stats;
  }

 private:
  static constexpr size_t kShards = 16;
  /// Ballpark unordered_map node + bucket bookkeeping per entry (libstdc++:
  /// next pointer + cached hash + bucket slot share).
  static constexpr uint64_t kNodeOverheadBytes = 24;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Mapped, Hash> map;
  };

  Shard& ShardFor(const Key& key) const {
    // Re-mix the map hash for shard selection so shard index and in-shard
    // bucket are decorrelated.
    const uint64_t h = data::MixU64(static_cast<uint64_t>(Hash{}(key)));
    return shards_[h & (kShards - 1)];
  }

  const size_t capacity_;
  mutable Shard shards_[kShards];
  mutable std::atomic<uint64_t> entries_{0};
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> evictions_{0};
};

}  // namespace core
}  // namespace uniclean

#endif  // UNICLEAN_CORE_SHARDED_MEMO_H_
