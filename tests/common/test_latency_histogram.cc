/**
 * @file
 * ConcurrentHistogram: bucket geometry, quantiles against a sorted
 * oracle, wide dynamic range, and concurrent shard merging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/latency_histogram.h"
#include "common/prng.h"

using namespace btrace;

namespace {

TEST(LatencyHistogram, BucketGeometry)
{
    // Exact buckets below 2^kSubBits.
    for (uint64_t v = 0; v < ConcurrentHistogram::kSubCount; ++v) {
        EXPECT_EQ(ConcurrentHistogram::bucketOf(v), v);
        EXPECT_EQ(ConcurrentHistogram::bucketLowerBound(v), v);
    }
}

TEST(LatencyHistogram, BucketIndexIsMonotone)
{
    std::size_t prev = 0;
    for (unsigned shift = 0; shift < 63; ++shift) {
        for (const uint64_t off : {0ull, 1ull}) {
            const uint64_t v = (1ull << shift) + off;
            const std::size_t b = ConcurrentHistogram::bucketOf(v);
            EXPECT_GE(b, prev) << "v=" << v;
            EXPECT_LT(b, ConcurrentHistogram::kBuckets);
            prev = b;
        }
    }
}

TEST(LatencyHistogram, LowerBoundInvertsBucketOf)
{
    // The representative (lower bound) of v's bucket must land in the
    // same bucket and never exceed v.
    Prng rng(7);
    for (int i = 0; i < 20000; ++i) {
        const uint64_t v = rng.next() >> (rng.next() % 40);
        const std::size_t b = ConcurrentHistogram::bucketOf(v);
        const uint64_t lo = ConcurrentHistogram::bucketLowerBound(b);
        EXPECT_LE(lo, v);
        if (b + 1 < ConcurrentHistogram::kBuckets) {
            EXPECT_EQ(ConcurrentHistogram::bucketOf(lo), b)
                << "v=" << v << " b=" << b << " lo=" << lo;
        }
    }
}

TEST(LatencyHistogram, RelativeErrorBounded)
{
    // Log-linear with 16 sub-buckets per octave: the bucket width is
    // at most 1/16 of the value, so the representative understates by
    // under ~6.3%.
    for (const uint64_t v :
         {100ull, 999ull, 12345ull, 1ull << 20, 987654321ull}) {
        const uint64_t lo = ConcurrentHistogram::bucketLowerBound(
            ConcurrentHistogram::bucketOf(v));
        EXPECT_LE(double(v - lo) / double(v), 1.0 / 16.0 + 1e-9)
            << "v=" << v;
    }
}

TEST(LatencyHistogram, QuantilesMatchSortedOracle)
{
    ConcurrentHistogram h(4);
    Prng rng(42);
    std::vector<uint64_t> oracle;
    for (int i = 0; i < 50000; ++i) {
        // Log-uniform over [1, 2^30): stresses many octaves.
        const uint64_t v = 1 + (rng.next() >> (34 + rng.next() % 30));
        oracle.push_back(v);
        h.add(v);
    }
    std::sort(oracle.begin(), oracle.end());
    const HistogramSnapshot snap = h.snapshot();
    ASSERT_EQ(snap.count(), oracle.size());

    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
        const uint64_t exact =
            oracle[std::size_t(q * double(oracle.size() - 1))];
        const uint64_t approx = snap.quantile(q);
        // Bucket representative: within one sub-bucket below exact.
        EXPECT_LE(approx, exact);
        EXPECT_GE(double(approx), double(exact) * (1.0 - 1.0 / 16.0) - 1)
            << "q=" << q << " exact=" << exact;
    }
    EXPECT_LE(snap.maxValue(), oracle.back());
    EXPECT_GE(double(snap.maxValue()),
              double(oracle.back()) * (1.0 - 1.0 / 16.0) - 1);
}

TEST(LatencyHistogram, WideDynamicRange)
{
    ConcurrentHistogram h;
    h.add(0);
    h.add(30);                      // fast-path write, ns
    h.add(300ull * 1000 * 1000);    // straggler stall, 300 ms
    h.add(~0ull);                   // saturates the overflow bucket
    const HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count(), 4u);
    EXPECT_EQ(snap.quantile(0.0), 0u);
    EXPECT_EQ(snap.quantile(0.5), 30u);  // nearest-rank 2 of 4
    const uint64_t p75 = snap.quantile(0.75);
    EXPECT_GE(p75, 280ull * 1000 * 1000);
    EXPECT_LE(p75, 300ull * 1000 * 1000);
    EXPECT_GT(snap.maxValue(), 1ull << 44);
}

TEST(LatencyHistogram, ShardsMergeAcrossThreads)
{
    ConcurrentHistogram h(8);
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t]() {
            Prng rng(uint64_t(t) + 1);
            for (int i = 0; i < kPerThread; ++i)
                h.add(1 + (rng.next() >> 40));
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(h.count(), uint64_t(kThreads) * kPerThread);
    const HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count(), uint64_t(kThreads) * kPerThread);
    EXPECT_GT(snap.quantile(0.5), 0u);
}

TEST(LatencyHistogram, ExplicitShardsAndClear)
{
    ConcurrentHistogram h(2);
    h.addToShard(0, 100);
    h.addToShard(1, 100);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.snapshot().counts[ConcurrentHistogram::bucketOf(100)],
              2u);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.snapshot().maxValue(), 0u);
}

TEST(LatencyHistogram, ConcurrentAddWhileSnapshot)
{
    // 4 writers hammer the shards while the reader repeatedly merges.
    // Every snapshot must be internally sane (sum consistent with
    // counts being mid-flight is fine; totals can only grow), and the
    // final merge must account for every add exactly.
    ConcurrentHistogram h(4);
    constexpr int kWriters = 4;
    constexpr uint64_t kPerWriter = 60000;
    std::atomic<bool> go{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&h, &go, w]() {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            Prng rng(uint64_t(w) + 17);
            for (uint64_t i = 0; i < kPerWriter; ++i)
                h.addToShard(unsigned(w), 1 + (rng.next() >> 44));
        });
    }
    go.store(true, std::memory_order_release);

    uint64_t prevTotal = 0;
    uint64_t prevSum = 0;
    for (int pass = 0; pass < 400; ++pass) {
        const HistogramSnapshot s = h.snapshot();
        // Relaxed per-bucket reads: totals are monotone across
        // successive merges even while writers are live.
        EXPECT_GE(s.total, prevTotal);
        EXPECT_GE(s.sum, prevSum);
        uint64_t bucketTotal = 0;
        for (const uint64_t c : s.counts)
            bucketTotal += c;
        EXPECT_EQ(bucketTotal, s.total);
        prevTotal = s.total;
        prevSum = s.sum;
    }
    for (std::thread &t : writers)
        t.join();

    const HistogramSnapshot fin = h.snapshot();
    EXPECT_EQ(fin.total, uint64_t(kWriters) * kPerWriter);
    uint64_t expectSum = 0;
    for (int w = 0; w < kWriters; ++w) {
        Prng rng(uint64_t(w) + 17);
        for (uint64_t i = 0; i < kPerWriter; ++i)
            expectSum += 1 + (rng.next() >> 44);
    }
    EXPECT_EQ(fin.sum, expectSum);
}

TEST(LatencyHistogram, PercentileAccuracyBound)
{
    // Known distribution: exact uniform 1..N, one of each. Every
    // reported percentile must sit within one sub-bucket (1/16) below
    // the true order statistic — the histogram's documented bound.
    constexpr uint64_t kN = 100000;
    ConcurrentHistogram h(1);
    for (uint64_t v = 1; v <= kN; ++v)
        h.add(v);
    const HistogramSnapshot s = h.snapshot();
    ASSERT_EQ(s.total, kN);
    for (const double q :
         {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
        const uint64_t exact = 1 + uint64_t(q * double(kN - 1));
        const uint64_t approx = s.quantile(q);
        EXPECT_LE(approx, exact) << "q=" << q;
        EXPECT_GE(double(approx),
                  double(exact) * (1.0 - 1.0 / 16.0) - 1.0)
            << "q=" << q << " exact=" << exact;
    }
    EXPECT_LE(s.maxValue(), kN);
    EXPECT_GE(double(s.maxValue()), double(kN) * (1.0 - 1.0 / 16.0));
}

TEST(LatencyHistogram, SnapshotMerge)
{
    ConcurrentHistogram a(1), b(1);
    a.add(10);
    b.add(1000);
    HistogramSnapshot sa = a.snapshot();
    sa.merge(b.snapshot());
    EXPECT_EQ(sa.count(), 2u);
    EXPECT_EQ(sa.quantile(0.0), 10u);
    EXPECT_GE(sa.quantile(1.0), 960u);
}

TEST(HistogramBatch, MergeEqualsPerValueAdd)
{
    ConcurrentHistogram perValue, merged;
    HistogramBatch batch;
    Prng rng(77);
    // Exact buckets, log-linear octaves and the overflow bucket.
    for (int pass = 0; pass < 8; ++pass) {
        for (int i = 0; i < 500; ++i) {
            const uint64_t v = rng.next() >> rng.nextBounded(64);
            perValue.add(v);
            batch.add(v);
        }
        perValue.add(UINT64_MAX);
        batch.add(UINT64_MAX);
        merged.merge(batch);
        EXPECT_TRUE(batch.empty());
    }
    // A cleared batch and an empty one add nothing.
    batch.add(12345);
    batch.clear();
    merged.merge(batch);

    const HistogramSnapshot a = perValue.snapshot();
    const HistogramSnapshot b = merged.snapshot();
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(b.total, 8u * 501u);
}

} // namespace
