// ga::telemetry — lock-free always-on service metrics (the fleet-level
// counterpart of the per-job Granula traces, docs/OBSERVABILITY.md).
//
// Three instrument kinds, all safe for concurrent recording from any
// number of threads with NO locks on the hot path:
//
//   Counter    monotonic, sharded: each recording thread lands on its own
//              cache-line-padded shard (relaxed fetch_add, no line
//              bouncing between executor threads); Value() sums shards.
//   Gauge      a single last-written atomic (resident bytes, queue depth).
//   Histogram  log-bucketed latency distribution: power-of-two-ish
//              buckets (4 linear sub-buckets per octave, <= 25% relative
//              bucket width), exact count and sum kept alongside, and a
//              deterministic quantile extraction — p50/p90/p99 are a pure
//              function of the merged bucket counts, so two snapshots
//              with equal buckets always report equal percentiles.
//
// Recording never allocates: every instrument's storage is fixed at
// construction (the zero-steady-state-allocation contract of DESIGN.md
// §8 extended to telemetry, enforced by tests/telemetry/). Recording is
// also gated on a process-wide enable flag so the overhead gate
// (bench/telemetry_overhead.cc) can measure the telemetered vs
// untelemetered serving path in one binary.
//
// Telemetry only OBSERVES: no instrument feeds back into admission,
// scheduling or execution, so outputs, WorkLedger and simulated metrics
// are byte-identical with telemetry enabled or disabled at any --jobs.
#ifndef GRAPHALYTICS_TELEMETRY_METRICS_H_
#define GRAPHALYTICS_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>

namespace ga::telemetry {

/// Process-wide recording switch (default on). Disabling turns every
/// Add/Set/Record into one relaxed load + branch; instruments keep their
/// accumulated values. The overhead bench flips this to compare the two
/// serving paths; production never turns it off.
bool Enabled();
void SetEnabled(bool on);

namespace internal {
/// Small dense thread ordinal for shard selection: the first kShards
/// recording threads get distinct shards; later threads wrap. Stable for
/// a thread's lifetime.
unsigned ThisThreadOrdinal();
}  // namespace internal

/// Monotonic counter. Add() is wait-free: one relaxed fetch_add on the
/// calling thread's shard.
class Counter {
 public:
  static constexpr unsigned kShards = 8;  // power of two

  void Add(std::int64_t delta = 1) {
    if (!Enabled()) return;
    shards_[internal::ThisThreadOrdinal() & (kShards - 1)].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  std::int64_t Value() const {
    std::int64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::int64_t> value{0};
  };
  Shard shards_[kShards];
};

/// Last-written value. Set/Add are single relaxed atomics — gauges track
/// externally-computed levels (resident bytes, depth), not hot-path
/// increments, so sharding would only blur the level.
class Gauge {
 public:
  void Set(std::int64_t value) {
    if (!Enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(std::int64_t delta) {
    if (!Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log-bucketed histogram over non-negative int64 values (latencies are
/// recorded in integer microseconds; the registry attaches a unit scale
/// for exposition). Bucket layout: values 0..3 get unit buckets; every
/// octave [2^e, 2^(e+1)) above splits into 4 linear sub-buckets, so the
/// relative bucket width never exceeds 1/4 — which bounds the quantile
/// extraction error at 25% (tests/telemetry/histogram_test.cc).
class Histogram {
 public:
  static constexpr int kSubBits = 2;
  static constexpr int kSub = 1 << kSubBits;  // sub-buckets per octave
  static constexpr int kMaxExponent = 62;     // int64 MSB range
  static constexpr int kNumBuckets =
      kSub + (kMaxExponent - kSubBits + 1) * kSub;

  /// Bucket index of a value (negatives clamp to 0).
  static int BucketOf(std::int64_t value) {
    const std::uint64_t v =
        value > 0 ? static_cast<std::uint64_t>(value) : 0u;
    if (v < kSub) return static_cast<int>(v);
    const int exponent = 63 - std::countl_zero(v);
    const int sub = static_cast<int>((v >> (exponent - kSubBits)) &
                                     (kSub - 1));
    return kSub + (exponent - kSubBits) * kSub + sub;
  }

  /// Inclusive lower bound of a bucket's value range.
  static std::int64_t BucketLowerBound(int bucket) {
    if (bucket < kSub) return bucket;
    const int group = bucket - kSub;
    const int shift = group / kSub;  // exponent - kSubBits
    const int sub = group % kSub;
    return static_cast<std::int64_t>(kSub + sub) << shift;
  }

  /// Exclusive upper bound of a bucket's value range. The top bucket's
  /// bound, 2^63, does not fit in int64 and saturates at INT64_MAX.
  static std::int64_t BucketUpperBound(int bucket) {
    if (bucket < kSub) return bucket + 1;
    if (bucket == kNumBuckets - 1) {
      return std::numeric_limits<std::int64_t>::max();
    }
    const int shift = (bucket - kSub) / kSub;
    return BucketLowerBound(bucket) + (std::int64_t{1} << shift);
  }

  /// Wait-free: three relaxed fetch_adds (bucket, count, sum).
  void Record(std::int64_t value) {
    if (!Enabled()) return;
    if (value < 0) value = 0;
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  std::int64_t Count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  /// A point-in-time copy of the distribution. Concurrent recording may
  /// land between the loads (count/sum/buckets are each exact but not
  /// mutually atomic) — fine for monitoring, and quiescent snapshots are
  /// exact. Fixed-size storage: taking a snapshot never allocates.
  struct Snapshot {
    std::int64_t count = 0;
    std::int64_t sum = 0;
    std::array<std::int64_t, kNumBuckets> buckets{};

    void Merge(const Snapshot& other) {
      count += other.count;
      sum += other.sum;
      for (int b = 0; b < kNumBuckets; ++b) buckets[b] += other.buckets[b];
    }

    /// Deterministic quantile from the merged buckets: find the bucket
    /// holding the ceil(q*count)-th smallest sample and interpolate
    /// linearly inside its range. For any sample set the result is
    /// within one bucket width of the exact sorted-sample quantile —
    /// i.e. within 25% relative error for values >= 4 (unit buckets are
    /// exact below that).
    double Quantile(double q) const;

    double MeanValue() const {
      return count > 0
                 ? static_cast<double>(sum) / static_cast<double>(count)
                 : 0.0;
    }
  };

  Snapshot Take() const {
    Snapshot snapshot;
    snapshot.count = count_.load(std::memory_order_relaxed);
    snapshot.sum = sum_.load(std::memory_order_relaxed);
    for (int b = 0; b < kNumBuckets; ++b) {
      snapshot.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    return snapshot;
  }

 private:
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> buckets_[kNumBuckets]{};
};

}  // namespace ga::telemetry

#endif  // GRAPHALYTICS_TELEMETRY_METRICS_H_
