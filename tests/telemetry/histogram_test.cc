// ga::telemetry histogram contract tests: bucket mapping round-trips,
// exact count/sum, quantile accuracy against exact sorted samples
// (within the documented 25% relative bound), concurrent recording
// merging to the same bucket totals as serial, and deterministic
// quantile extraction from merged snapshots.
#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "core/rng.h"

namespace ga::telemetry {
namespace {

TEST(HistogramTest, BucketBoundsContainTheirValues) {
  // Every probed value must land in a bucket whose [lower, upper) range
  // contains it, and the bucket ranges must tile without gaps.
  std::vector<std::int64_t> probes = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16,
                                      17, 100, 1000, 4095, 4096, 1 << 20};
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    probes.push_back(static_cast<std::int64_t>(
        rng.NextBounded(std::uint64_t{1} << 40)));
  }
  for (std::int64_t value : probes) {
    const int bucket = Histogram::BucketOf(value);
    ASSERT_GE(bucket, 0);
    ASSERT_LT(bucket, Histogram::kNumBuckets);
    EXPECT_GE(value, Histogram::BucketLowerBound(bucket)) << value;
    EXPECT_LT(value, Histogram::BucketUpperBound(bucket)) << value;
  }
  for (int b = 0; b + 1 < Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(Histogram::BucketUpperBound(b),
              Histogram::BucketLowerBound(b + 1));
  }
}

TEST(HistogramTest, RelativeBucketWidthIsBounded) {
  // The 25% quantile error bound rests on this: above the unit buckets,
  // width / lower <= 1/4.
  for (int b = Histogram::kSub; b < Histogram::kNumBuckets; ++b) {
    const double lower =
        static_cast<double>(Histogram::BucketLowerBound(b));
    const double width =
        static_cast<double>(Histogram::BucketUpperBound(b)) - lower;
    EXPECT_LE(width / lower, 0.25 + 1e-12) << "bucket " << b;
  }
}

TEST(HistogramTest, TopBucketBoundSaturatesAtInt64Max) {
  // The top bucket holds [7 * 2^60, INT64_MAX]. Its exclusive bound, 2^63,
  // is not an int64 value, so it saturates instead of overflowing.
  constexpr int kTop = Histogram::kNumBuckets - 1;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(Histogram::BucketOf(kMax), kTop);
  EXPECT_EQ(Histogram::BucketOf(std::int64_t{7} << 60), kTop);
  EXPECT_EQ(Histogram::BucketLowerBound(kTop), std::int64_t{7} << 60);
  EXPECT_EQ(Histogram::BucketUpperBound(kTop), kMax);
  EXPECT_EQ(Histogram::BucketUpperBound(kTop - 1),
            Histogram::BucketLowerBound(kTop));
  // A sample there interpolates to a quantile inside the bucket.
  Histogram histogram;
  histogram.Record(std::int64_t{7} << 60);
  const double quantile = histogram.Take().Quantile(0.5);
  EXPECT_GE(quantile, static_cast<double>(Histogram::BucketLowerBound(kTop)));
  EXPECT_LE(quantile, static_cast<double>(kMax));
}

TEST(HistogramTest, CountAndSumAreExact) {
  Histogram histogram;
  std::int64_t expected_sum = 0;
  SplitMix64 rng(13);
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t value =
        static_cast<std::int64_t>(rng.NextBounded(1 << 22));
    histogram.Record(value);
    expected_sum += value;
  }
  EXPECT_EQ(histogram.Count(), 5000);
  EXPECT_EQ(histogram.Sum(), expected_sum);
  // Negatives clamp to zero rather than corrupting the distribution.
  histogram.Record(-17);
  EXPECT_EQ(histogram.Count(), 5001);
  EXPECT_EQ(histogram.Sum(), expected_sum);
}

double ExactQuantile(std::vector<std::int64_t> sorted, double q) {
  // Nearest-rank, matching the histogram's definition.
  std::sort(sorted.begin(), sorted.end());
  const std::int64_t n = static_cast<std::int64_t>(sorted.size());
  std::int64_t rank = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::max<std::int64_t>(1, std::min(rank, n));
  return static_cast<double>(sorted[static_cast<std::size_t>(rank - 1)]);
}

TEST(HistogramTest, QuantilesTrackExactSortedSamplesWithinBucketWidth) {
  // Log-uniform samples over ~6 decades — the latency-like regime the
  // buckets are shaped for.
  Histogram histogram;
  std::vector<std::int64_t> samples;
  SplitMix64 rng(42);
  for (int i = 0; i < 20000; ++i) {
    const double log_value = rng.NextDouble() * 6.0;  // 1 .. 1e6
    const std::int64_t value =
        static_cast<std::int64_t>(std::pow(10.0, log_value));
    samples.push_back(value);
    histogram.Record(value);
  }
  const Histogram::Snapshot snapshot = histogram.Take();
  for (double q : {0.50, 0.90, 0.99}) {
    const double exact = ExactQuantile(samples, q);
    const double estimated = snapshot.Quantile(q);
    // Interpolation stays inside the exact value's bucket, so the error
    // is at most one bucket width: 25% relative above the unit buckets,
    // one unit below.
    const double tolerance = std::max(1.0, exact * 0.25);
    EXPECT_NEAR(estimated, exact, tolerance) << "q=" << q;
  }
}

TEST(HistogramTest, QuantileEdgeCases) {
  Histogram histogram;
  EXPECT_EQ(histogram.Take().Quantile(0.5), 0.0);  // empty: defined as 0
  histogram.Record(7);
  const Histogram::Snapshot one = histogram.Take();
  // A single sample: every quantile lands in its bucket.
  EXPECT_GE(one.Quantile(0.01), Histogram::BucketLowerBound(
                                    Histogram::BucketOf(7)));
  EXPECT_LE(one.Quantile(0.99), Histogram::BucketUpperBound(
                                    Histogram::BucketOf(7)));
}

TEST(HistogramTest, ConcurrentRecordingMergesToSerialTotals) {
  // The same multiset of values recorded by 8 threads concurrently and
  // by one thread serially must produce identical bucket totals — the
  // relaxed sharded adds lose nothing.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Histogram concurrent;
  Histogram serial;
  std::vector<std::vector<std::int64_t>> streams(kThreads);
  SplitMix64 seeder(99);
  for (int t = 0; t < kThreads; ++t) {
    SplitMix64 rng = seeder.Split(static_cast<std::uint64_t>(t));
    for (int i = 0; i < kPerThread; ++i) {
      streams[static_cast<std::size_t>(t)].push_back(
          static_cast<std::int64_t>(rng.NextBounded(1 << 24)));
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, &streams, t] {
      for (std::int64_t value : streams[static_cast<std::size_t>(t)]) {
        concurrent.Record(value);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& stream : streams) {
    for (std::int64_t value : stream) serial.Record(value);
  }
  const Histogram::Snapshot a = concurrent.Take();
  const Histogram::Snapshot b = serial.Take();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  for (int bucket = 0; bucket < Histogram::kNumBuckets; ++bucket) {
    ASSERT_EQ(a.buckets[bucket], b.buckets[bucket]) << "bucket " << bucket;
  }
  // Equal buckets => equal percentiles (the deterministic-extraction
  // contract).
  EXPECT_EQ(a.Quantile(0.5), b.Quantile(0.5));
  EXPECT_EQ(a.Quantile(0.99), b.Quantile(0.99));
}

TEST(HistogramTest, SnapshotMergeAddsDistributions) {
  Histogram left;
  Histogram right;
  Histogram both;
  for (std::int64_t value : {1, 5, 9, 100}) {
    left.Record(value);
    both.Record(value);
  }
  for (std::int64_t value : {2, 5, 1000}) {
    right.Record(value);
    both.Record(value);
  }
  Histogram::Snapshot merged = left.Take();
  merged.Merge(right.Take());
  const Histogram::Snapshot expected = both.Take();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.sum, expected.sum);
  EXPECT_EQ(merged.buckets, expected.buckets);
  EXPECT_EQ(merged.Quantile(0.9), expected.Quantile(0.9));
}

TEST(CounterTest, ShardedAddsSumExactlyAcrossThreads) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(),
            static_cast<std::int64_t>(kThreads) * kPerThread);
}

TEST(EnabledFlagTest, DisabledRecordingIsDropped) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  SetEnabled(false);
  counter.Add(5);
  gauge.Set(5);
  histogram.Record(5);
  SetEnabled(true);
  EXPECT_EQ(counter.Value(), 0);
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(histogram.Count(), 0);
  counter.Add(5);
  EXPECT_EQ(counter.Value(), 5);
}

}  // namespace
}  // namespace ga::telemetry
