// StringPool: the dictionary encoding behind data::Value. Every distinct
// cell string is interned exactly once and identified by a dense 32-bit id,
// so value equality and hashing across the cleaning engines are integer
// operations and tuples are flat arrays of ids instead of vectors of
// heap-allocated strings (the move HoloClean makes when compiling values
// into integer domains before inference). Strings are resolved back only
// where an actual similarity computation needs the characters.
//
// Ids are never recycled: the pool only grows over a process lifetime, and
// interned ids stay valid (and keep resolving to the same characters) for as
// long as the pool that produced them is installed. Ids are minted in
// first-seen order, so the same interning sequence yields the same ids.
//
// Thread safety: the pool is safe for concurrent use.
//  * Resolving an id (str/view/size) is lock-free: storage is a two-level
//    chunk table whose chunks are published with release/acquire ordering
//    and never move.
//  * Finding an interned string is lock-free too. The index is a flat
//    open-addressing table of 8-byte atomic slots, each holding a 32-bit
//    hash fingerprint and id + 1 (0 marks an empty slot). A writer stores a
//    slot with release ordering after the string and size() are published,
//    so a reader that acquire-loads the slot can resolve its id. A hit
//    takes no lock; this is every CSV cell of a CLEAN against a warm pool.
//  * A miss takes the writer mutex, probes again (another thread may have
//    interned the string meanwhile) and mints the next id. Misses therefore
//    serialize, and ids stay dense and in first-seen order.
//  * The table doubles when it would pass 3/4 full. The writer fills the new
//    table while readers still probe the old one, then publishes it with a
//    release store. A reader still probing a retired table finds every
//    string interned before the growth, and treats a miss there like any
//    miss: it re-probes the live table under the mutex.
//  * Retired tables are freed only with the pool, so no reader ever touches
//    freed memory. They are powers of two below the live table, so together
//    they hold less than it does. Past its first 64 slots the live table is
//    3/8 to 3/4 full, so the index costs 10.7 to 21.3 bytes per interned
//    string in the live table and under 43 in all (IndexBytes()). The
//    node-based hash map it replaced cost about 56: a 40-byte node plus
//    allocator overhead, and 8 to 16 bytes of bucket array.
// This is what lets concurrent uniclean::Session runs and daemon workers
// share one pool: cleaning and CSV ingest against a warm pool are
// read-mostly, and the rare intern is correct, just not contention-free.
// Installing a different global pool (ScopedStringPool) is NOT thread-safe
// and must happen while no other thread touches values.

#ifndef UNICLEAN_DATA_STRING_POOL_H_
#define UNICLEAN_DATA_STRING_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/result.h"

namespace uniclean {
namespace data {

/// Id of an interned string; kNullValueId marks SQL null.
using ValueId = uint32_t;

/// splitmix64 finalizer: the shared integer mixer behind ValueHash and
/// GroupKeyHash.
inline uint64_t MixU64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The string hash behind StringPool's index: 8-byte words folded by
/// multiply and shift, the last 1-8 bytes read as two overlapping 4-byte
/// words (or three single bytes), then MixU64. Every load has a fixed
/// width, so no call to memcpy is made. It decides only where a string
/// sits in the index, never which id it gets.
inline uint64_t HashBytes(std::string_view s) {
  const auto load32 = [](const char* p) {
    uint32_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    return uint64_t{word};
  };
  const char* p = s.data();
  size_t n = s.size();
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ n;
  for (; n > 8; p += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    h = (h ^ word) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
  }
  uint64_t tail = 0;
  if (n >= 4) {
    tail = (load32(p) << 32) | load32(p + n - 4);
  } else if (n > 0) {
    tail = (uint64_t{static_cast<uint8_t>(p[0])} << 16) |
           (uint64_t{static_cast<uint8_t>(p[n / 2])} << 8) |
           static_cast<uint8_t>(p[n - 1]);
  }
  return MixU64(h ^ tail);
}

/// Occupancy snapshot of a StringPool (see StringPool::Stats) — the
/// observable baseline for the ROADMAP id-recycling work: long-lived delta
/// sessions keep interning fresh values, and ids are never recycled, so
/// `remaining` is the budget a serving deployment burns down.
struct StringPoolStats {
  /// Distinct strings interned so far (== the next id to be minted).
  size_t interned = 0;
  /// Total id capacity of the pool (2^28; kNullId is outside it).
  size_t capacity = 0;
  /// Ids left before Intern aborts / TryIntern fails: capacity - interned.
  size_t remaining = 0;
  /// Characters resident across all interned strings (payload only; chunk
  /// table and hash-index overhead not included).
  uint64_t string_bytes = 0;
  /// Storage chunks in use (each holds kChunkSize string slots).
  size_t chunks = 0;
};

/// Content tag of a pool prefix: `count` interned strings whose *order-
/// sensitive* content hash is `hash`. Two pools with equal generations
/// resolve every id below `count` to identical characters — the contract
/// snapshot files (src/snapshot/) rely on to keep interned ids stable
/// across a process restart. Unlike CleanEngine::Fingerprint(), which is
/// deliberately interning-order independent, the generation hash *must*
/// depend on order: id stability is exactly what it certifies.
struct StringPoolGeneration {
  uint64_t count = 0;
  uint64_t hash = 0;

  bool operator==(const StringPoolGeneration& o) const {
    return count == o.count && hash == o.hash;
  }
};

class StringPool {
 public:
  /// Sentinel id for SQL null (never a valid interned id).
  static constexpr ValueId kNullId = 0xFFFFFFFFu;
  /// The empty string is pre-interned at id 0 so default-constructed Values
  /// need no lookup.
  static constexpr ValueId kEmptyId = 0;

  StringPool()
      : chunks_(new std::atomic<std::string*>[kMaxChunks]) {
    for (size_t c = 0; c < kMaxChunks; ++c) {
      chunks_[c].store(nullptr, std::memory_order_relaxed);
    }
    tables_.push_back(std::make_unique<IndexTable>(kInitialSlots));
    table_.store(tables_.back().get(), std::memory_order_release);
    Intern(std::string_view());
  }

  ~StringPool() {
    for (size_t c = 0; c < kMaxChunks; ++c) {
      delete[] chunks_[c].load(std::memory_order_relaxed);
    }
  }

  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

  /// Returns the id of `s`, interning it on first sight. Thread-safe: a
  /// string already in the pool is found without a lock; a new one is
  /// minted under the writer mutex. Fails with Status::OutOfRange — instead
  /// of minting an aliased id — when the 2^28 id space is exhausted; a
  /// caller that cannot recover should use Intern, which aborts. Watch
  /// Stats().remaining to see exhaustion coming.
  Result<ValueId> TryIntern(std::string_view s) {
    const uint64_t hash = HashBytes(s);
    const ValueId hit = Find(*table_.load(std::memory_order_acquire), s, hash);
    if (hit != kNullId) return hit;
    std::lock_guard<std::mutex> lock(mutex_);
    return InternLocked(s, hash);
  }

  /// Interns `strings[0..n)` in order, writing each id to `ids[0..n)` —
  /// semantically identical to n back-to-back TryIntern calls, but under
  /// one hold of the writer mutex, so no other thread can mint an id in the
  /// middle of the batch: n fresh strings get n consecutive ids. The index
  /// is grown once up front to hold the whole batch; lock-free lookups by
  /// other threads go on meanwhile. The bulk path for snapshot loading,
  /// where tens of thousands of strings arrive at once.
  Status TryInternBatch(const std::string_view* strings, size_t n,
                        ValueId* ids) {
    std::lock_guard<std::mutex> lock(mutex_);
    // Never sized past the id space: a batch that large fails OutOfRange.
    GrowLocked(std::min<size_t>(size_.load(std::memory_order_relaxed) + n,
                                kCapacity));
    for (size_t i = 0; i < n; ++i) {
      UC_ASSIGN_OR_RETURN(ids[i],
                          InternLocked(strings[i], HashBytes(strings[i])));
    }
    return Status::OK();
  }

  /// Like TryIntern but aborts on id-space exhaustion — the convenient form
  /// for the hot paths, where exhaustion is unrecoverable anyway.
  ValueId Intern(std::string_view s) {
    Result<ValueId> id = TryIntern(s);
    UC_CHECK(id.ok()) << id.status().ToString();
    return id.value();
  }

  /// The interned string for a valid id; kNullId resolves to "". Lock-free.
  /// Aborts on out-of-range ids (e.g. an id issued by a larger pool); an
  /// in-range id issued by a *different* pool is indistinguishable from a
  /// valid one and resolves to this pool's string — never mix ids across
  /// pools (see ScopedStringPool).
  const std::string& str(ValueId id) const {
    if (id == kNullId) return empty_;
    UC_CHECK_LT(id, size_.load(std::memory_order_acquire))
        << "StringPool: unknown value id";
    return Resolve(id);
  }

  std::string_view view(ValueId id) const { return str(id); }

  /// Number of distinct interned strings.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Occupancy counters (MemoStats-style): interned count, id capacity,
  /// remaining ids, resident character bytes. Live atomics — safe to call
  /// while other threads intern; the snapshot is approximate under
  /// concurrent writers.
  StringPoolStats Stats() const {
    StringPoolStats stats;
    stats.interned = size();
    stats.capacity = static_cast<size_t>(kCapacity);
    stats.remaining = stats.capacity - stats.interned;
    stats.string_bytes = string_bytes_.load(std::memory_order_relaxed);
    stats.chunks = (stats.interned + kChunkSize - 1) >> kChunkBits;
    return stats;
  }

  /// Slots in the live index table (a power of two).
  size_t IndexSlots() const {
    return table_.load(std::memory_order_acquire)->mask + 1;
  }

  /// Bytes held by the index: the live table and every retired one. Always
  /// less than twice the live table (see the thread-safety note above).
  size_t IndexBytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t bytes = 0;
    for (const std::unique_ptr<IndexTable>& table : tables_) {
      bytes += (table->mask + 1) * sizeof(std::atomic<uint64_t>);
    }
    return bytes;
  }

  /// Order-sensitive content hash of ids [0, n): each string's length and
  /// characters folded through MixU64 in id order. Lock-free (reads through
  /// str()); requires n <= size(). O(total characters of the prefix).
  uint64_t PrefixHash(size_t n) const {
    UC_CHECK_LE(n, size()) << "StringPool::PrefixHash: prefix beyond pool";
    uint64_t h = 0x243f6a8885a308d3ULL;  // distinct seed from Fingerprint()
    for (size_t id = 0; id < n; ++id) {
      const std::string& s = str(static_cast<ValueId>(id));
      h = MixU64(h ^ s.size());
      for (char c : s) {
        h = MixU64(h ^ static_cast<uint64_t>(static_cast<uint8_t>(c)));
      }
    }
    return h;
  }

  /// The pool's current generation tag: its size and the PrefixHash over
  /// all of it. Snapshot headers carry the writer's generation; a loader
  /// accepts a snapshot into a pool whose ids extend (or are a prefix of)
  /// the writer's — see snapshot::LoadPoolSection.
  StringPoolGeneration Generation() const {
    StringPoolGeneration gen;
    gen.count = size();
    gen.hash = PrefixHash(static_cast<size_t>(gen.count));
    return gen;
  }

  /// The process-wide pool used by data::Value. All relations, rules and
  /// engines in a process share it, so ids from different relations are
  /// directly comparable.
  static StringPool& Global() {
    StringPool* p = global_;
    return p != nullptr ? *p : DefaultInstance();
  }

 private:
  friend class ScopedStringPool;

  // Two-level storage: chunks of kChunkSize strings, allocated on demand and
  // never moved, so readers resolve ids without taking the writer mutex.
  // Cost of the lock-free read path: a fixed 256KB pointer table per pool
  // plus ~256KB for the first chunk's default-constructed strings (~0.5MB
  // per instance — negligible for the process-wide pool, deliberate for
  // test-scoped ScopedStringPools), and an id capacity of 2^28 instead of
  // the old deque's ~2^32 (observed pools hold well under 2^24; exhaustion
  // aborts loudly via UC_CHECK).
  static constexpr size_t kChunkBits = 13;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;  // 8192
  static constexpr size_t kMaxChunks = size_t{1} << 15;
  static constexpr ValueId kCapacity =
      static_cast<ValueId>(kChunkSize * kMaxChunks);  // 2^28 ids

  /// Live index slots when a pool is created, and the fill the table may
  /// reach before it doubles (kMaxLoadNum / kMaxLoadDen).
  static constexpr size_t kInitialSlots = 64;
  static constexpr size_t kMaxLoadNum = 3;
  static constexpr size_t kMaxLoadDen = 4;

  /// One index table: open addressing with linear probing over 2^k atomic
  /// slots. A slot is 0 (empty) or (fingerprint << 32) | (id + 1), where
  /// the fingerprint is the upper half of the string's HashBytes and also
  /// picks the home slot, so growing the table rehashes no string.
  struct IndexTable {
    explicit IndexTable(size_t slots)
        : mask(slots - 1), slot(new std::atomic<uint64_t>[slots]()) {}
    const size_t mask;
    const std::unique_ptr<std::atomic<uint64_t>[]> slot;
  };
  static_assert(sizeof(std::atomic<uint64_t>) == 8, "8-byte index slots");

  /// Lazily creates the process default pool (safe under any static
  /// initialization order) and installs it as the global.
  static StringPool& DefaultInstance();

  /// The string behind a valid id, without the range check of str().
  const std::string& Resolve(ValueId id) const {
    return chunks_[id >> kChunkBits].load(std::memory_order_acquire)
        [id & (kChunkSize - 1)];
  }

  /// The id of `s` in `table`, or kNullId. Lock-free; `table` may be
  /// retired, in which case a miss proves nothing.
  ValueId Find(const IndexTable& table, std::string_view s,
               uint64_t hash) const {
    const uint64_t fingerprint = hash >> 32;
    for (size_t i = fingerprint & table.mask;; i = (i + 1) & table.mask) {
      const uint64_t slot = table.slot[i].load(std::memory_order_acquire);
      if (slot == 0) return kNullId;
      if ((slot >> 32) == fingerprint) {
        const ValueId id = static_cast<ValueId>(slot) - 1;
        if (Resolve(id) == s) return id;
      }
    }
  }

  /// Stores `slot` in the first empty slot of its probe sequence. Requires
  /// mutex_ held (or `table` not yet published).
  static void Place(IndexTable* table, uint64_t slot) {
    size_t i = (slot >> 32) & table->mask;
    while (table->slot[i].load(std::memory_order_relaxed) != 0) {
      i = (i + 1) & table->mask;
    }
    table->slot[i].store(slot, std::memory_order_release);
  }

  /// Makes the live table big enough for `entries` strings, doubling until
  /// they fit under the maximum load; a grown table is filled, then
  /// published, and the old one is retired, not freed. Requires mutex_ held.
  void GrowLocked(size_t entries) {
    const IndexTable* live = tables_.back().get();
    size_t slots = live->mask + 1;
    while (entries * kMaxLoadDen > slots * kMaxLoadNum) slots *= 2;
    if (slots == live->mask + 1) return;
    auto grown = std::make_unique<IndexTable>(slots);
    for (size_t i = 0; i <= live->mask; ++i) {
      const uint64_t slot = live->slot[i].load(std::memory_order_relaxed);
      if (slot != 0) Place(grown.get(), slot);
    }
    table_.store(grown.get(), std::memory_order_release);
    tables_.push_back(std::move(grown));
  }

  /// The interning body; requires mutex_ held.
  Result<ValueId> InternLocked(std::string_view s, uint64_t hash) {
    const ValueId hit = Find(*tables_.back(), s, hash);
    if (hit != kNullId) return hit;
    const ValueId id = size_.load(std::memory_order_relaxed);
    // Never mint kNullId (or wrap): fail loudly instead of silently aliasing.
    if (id >= kCapacity) {
      return Status::OutOfRange(
          "StringPool: id space exhausted (" + std::to_string(kCapacity) +
          " ids interned; ids are never recycled — see ROADMAP 'StringPool "
          "growth')");
    }
    GrowLocked(size_t{id} + 1);
    const size_t chunk = id >> kChunkBits;
    std::string* slots = chunks_[chunk].load(std::memory_order_relaxed);
    if (slots == nullptr) {
      slots = new std::string[kChunkSize];
      chunks_[chunk].store(slots, std::memory_order_release);
    }
    slots[id & (kChunkSize - 1)].assign(s.data(), s.size());
    string_bytes_.fetch_add(s.size(), std::memory_order_relaxed);
    // Publish: a reader that acquire-loads size() > id is guaranteed to see
    // the chunk pointer and the slot's characters ...
    size_.store(id + 1, std::memory_order_release);
    // ... and so is a reader that acquire-loads the index slot.
    Place(tables_.back().get(), ((hash >> 32) << 32) | (uint64_t{id} + 1));
    return id;
  }

  std::unique_ptr<std::atomic<std::string*>[]> chunks_;
  std::atomic<ValueId> size_{0};
  std::atomic<uint64_t> string_bytes_{0};
  /// The live index table, read without a lock.
  std::atomic<const IndexTable*> table_{nullptr};
  mutable std::mutex mutex_;  // guards tables_ and all writes
  /// Every index table in growth order; back() is the live one.
  std::vector<std::unique_ptr<IndexTable>> tables_;
  std::string empty_;

  static StringPool* global_;
};

/// Test-only RAII override: installs a fresh global pool for its lifetime.
/// Every Value, Relation and RuleSet created inside the scope holds ids of
/// the scoped pool and must not outlive it. Used by the interning parity
/// tests to re-run a pipeline under a permuted id assignment. Swapping the
/// global pool is not synchronized: install/uninstall only while no other
/// thread is running pipeline code.
class ScopedStringPool {
 public:
  ScopedStringPool() : previous_(StringPool::global_) {
    StringPool::global_ = &pool_;
  }
  ~ScopedStringPool() { StringPool::global_ = previous_; }

  ScopedStringPool(const ScopedStringPool&) = delete;
  ScopedStringPool& operator=(const ScopedStringPool&) = delete;

  StringPool& pool() { return pool_; }

 private:
  StringPool pool_;
  StringPool* previous_;
};

}  // namespace data
}  // namespace uniclean

#endif  // UNICLEAN_DATA_STRING_POOL_H_
