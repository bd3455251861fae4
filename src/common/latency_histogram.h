// LatencyHistogram: a thread-safe, mergeable, log-bucketed histogram for
// per-request serving metrics (unicleand records one per request opcode).
// The HDR-histogram bucketing scheme in miniature: values land in
// power-of-two octaves subdivided into 8 linear sub-buckets, so any
// recorded value is attributed with <= 12.5% relative error while the whole
// table is a flat array of 496 counters (~4 KB). Recording is a single
// relaxed atomic increment — safe from any number of threads with no
// locking on the hot path; quantile reads taken while writers are active
// see an approximate but internally consistent snapshot.
//
// Units are the caller's choice (the daemon records microseconds); the
// histogram itself is unit-agnostic.

#ifndef UNICLEAN_COMMON_LATENCY_HISTOGRAM_H_
#define UNICLEAN_COMMON_LATENCY_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace uniclean {

class LatencyHistogram {
 public:
  LatencyHistogram() = default;

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one observation. Lock-free; callable from any thread.
  void Record(uint64_t value) {
    buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    // CAS-max: keep the exact largest observation (bucketing would round it).
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Observations recorded so far.
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Exact largest observation (0 when empty).
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// Mean of all observations (0 when empty). Exact, not bucketed.
  uint64_t mean() const {
    const uint64_t n = count();
    return n == 0 ? 0 : sum_.load(std::memory_order_relaxed) / n;
  }

  /// Upper bound of the bucket holding the p-quantile observation
  /// (p in [0, 1]), clamped to max() so the tail never over-reports. Within
  /// 12.5% of the true quantile; 0 when empty.
  uint64_t Percentile(double p) const {
    const uint64_t n = count();
    if (n == 0) return 0;
    if (p < 0.0) p = 0.0;
    if (p > 1.0) p = 1.0;
    // Rank of the target observation, 1-based; p=0.5 over 10 samples -> 5th.
    uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(n));
    if (rank == 0) rank = 1;
    if (rank > n) rank = n;
    uint64_t seen = 0;
    for (int b = 0; b < kNumBuckets; ++b) {
      seen += buckets_[b].load(std::memory_order_relaxed);
      if (seen >= rank) {
        const uint64_t upper = BucketUpperBound(b);
        const uint64_t exact_max = max();
        return upper < exact_max ? upper : exact_max;
      }
    }
    return max();  // writers raced count() ahead of the bucket sums
  }

  uint64_t p50() const { return Percentile(0.50); }
  uint64_t p95() const { return Percentile(0.95); }
  uint64_t p99() const { return Percentile(0.99); }

  /// Folds `other`'s observations into this histogram (bucket-wise; the
  /// merged quantiles are exactly what one histogram fed both streams would
  /// report). Safe against concurrent Record() on either side.
  void Merge(const LatencyHistogram& other) {
    for (int b = 0; b < kNumBuckets; ++b) {
      const uint64_t n = other.buckets_[b].load(std::memory_order_relaxed);
      if (n != 0) buckets_[b].fetch_add(n, std::memory_order_relaxed);
    }
    count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    uint64_t theirs = other.max();
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (theirs > seen &&
           !max_.compare_exchange_weak(seen, theirs,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Resets every counter to the empty state. Not atomic with respect to
  /// concurrent Record() — quiesce writers first.
  void Reset() {
    for (int b = 0; b < kNumBuckets; ++b) {
      buckets_[b].store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  /// Serializes the complete bucket state as a compact ASCII token,
  /// "v1,<count>,<sum>,<max>,<bucket>=<n>,..." (sparse: only non-empty
  /// buckets appear). The token rides inside the binary STATS body
  /// (serve/stats.h), which is how per-replica histograms reach the cluster
  /// client to be merged; its alphabet [0-9v,=] also embeds in a JSON
  /// string with no escaping.
  std::string Encode() const {
    std::string out = "v1," + std::to_string(count()) + ',' +
                      std::to_string(sum_.load(std::memory_order_relaxed)) +
                      ',' + std::to_string(max());
    for (int b = 0; b < kNumBuckets; ++b) {
      const uint64_t n = buckets_[b].load(std::memory_order_relaxed);
      if (n != 0) {
        out += ',' + std::to_string(b) + '=' + std::to_string(n);
      }
    }
    return out;
  }

  /// Folds an Encode()d histogram's observations in, exactly as Merge()
  /// would the live histogram. Returns false (leaving this histogram
  /// untouched) on a malformed or unknown-version token.
  bool MergeEncoded(const std::string& encoded) {
    if (encoded.compare(0, 3, "v1,") != 0) return false;
    uint64_t header[3] = {0, 0, 0};  // count, sum, max
    uint64_t add[kNumBuckets] = {};
    int field = 0;
    size_t pos = 3;
    while (pos <= encoded.size()) {
      size_t comma = encoded.find(',', pos);
      if (comma == std::string::npos) comma = encoded.size();
      const std::string tok = encoded.substr(pos, comma - pos);
      if (field < 3) {
        if (!ParseU64(tok, &header[field])) return false;
      } else {
        const size_t eq = tok.find('=');
        uint64_t bucket = 0, n = 0;
        if (eq == std::string::npos ||
            !ParseU64(tok.substr(0, eq), &bucket) ||
            !ParseU64(tok.substr(eq + 1), &n) ||
            bucket >= static_cast<uint64_t>(kNumBuckets)) {
          return false;
        }
        add[bucket] += n;
      }
      ++field;
      pos = comma + 1;
    }
    if (field < 3) return false;
    for (int b = 0; b < kNumBuckets; ++b) {
      if (add[b] != 0) buckets_[b].fetch_add(add[b], std::memory_order_relaxed);
    }
    count_.fetch_add(header[0], std::memory_order_relaxed);
    sum_.fetch_add(header[1], std::memory_order_relaxed);
    uint64_t theirs = header[2];
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (theirs > seen &&
           !max_.compare_exchange_weak(seen, theirs,
                                       std::memory_order_relaxed)) {
    }
    return true;
  }

  /// "count=N mean=M p50=A p95=B p99=C max=D" (no unit suffix).
  std::string Summary() const {
    return "count=" + std::to_string(count()) +
           " mean=" + std::to_string(mean()) +
           " p50=" + std::to_string(p50()) +
           " p95=" + std::to_string(p95()) +
           " p99=" + std::to_string(p99()) + " max=" + std::to_string(max());
  }

 private:
  // 8 linear sub-buckets per power-of-two octave. Buckets 0..15 are exact
  // (values 0..15); from 16 up each octave [2^k, 2^(k+1)) splits into 8
  // ranges of width 2^(k-3).
  static constexpr int kSubBits = 3;
  static constexpr int kSub = 1 << kSubBits;  // 8
  static constexpr int kNumBuckets = ((64 - kSubBits) << kSubBits) + kSub;

  static bool ParseU64(const std::string& s, uint64_t* out) {
    if (s.empty()) return false;
    uint64_t v = 0;
    for (char c : s) {
      if (c < '0' || c > '9') return false;
      v = v * 10 + static_cast<uint64_t>(c - '0');
    }
    *out = v;
    return true;
  }

  static int BucketFor(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    return ((shift) << kSubBits) +
           static_cast<int>((v >> shift) & (kSub - 1)) + kSub;
  }

  /// Largest value mapped to bucket `b` (inverse of BucketFor).
  static uint64_t BucketUpperBound(int b) {
    if (b < 2 * kSub) return static_cast<uint64_t>(b);  // exact range 0..15
    const int shift = (b - kSub) >> kSubBits;  // >= 1
    const int msb = shift + kSubBits;
    const uint64_t sub = static_cast<uint64_t>((b - kSub) & (kSub - 1));
    const uint64_t lower = (uint64_t{1} << msb) + (sub << shift);
    return lower + (uint64_t{1} << shift) - 1;
  }

  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

}  // namespace uniclean

#endif  // UNICLEAN_COMMON_LATENCY_HISTOGRAM_H_
