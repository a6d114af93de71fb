/**
 * @file
 * Lock-free, per-thread-sharded, mergeable log-linear histogram for
 * hot-path latency sampling (the observability plane, DESIGN.md §8).
 *
 * The fixed-bucket Histogram in stats.h is neither concurrent nor
 * wide-range: latency samples from a live tracer span from tens of
 * nanoseconds (fast-path write) to hundreds of milliseconds (a
 * straggler's stall), and arrive from many producer threads at once.
 * This histogram uses HdrHistogram-style log-linear buckets — each
 * power-of-two octave split into 2^kSubBits linear sub-buckets, giving
 * a bounded ~6% relative error over the full 64-bit range — and
 * shards its bucket counters so concurrent add() calls from different
 * threads rarely touch the same cache line.
 *
 * add() is a single relaxed fetch_add on the caller's shard; there is
 * no locking anywhere, so it is safe from signal-handler-like contexts
 * and adds no shared-RMW traffic to the words the tracer itself
 * contends on. Readers merge the shards into a HistogramSnapshot — a
 * plain value type with quantile extraction — which is coherent in the
 * counters-style sense: each bucket is read atomically, the set of
 * buckets is not a linearizable cut, which is fine for monitoring.
 */

#ifndef BTRACE_COMMON_LATENCY_HISTOGRAM_H
#define BTRACE_COMMON_LATENCY_HISTOGRAM_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace btrace {

/** Merged, immutable view of a ConcurrentHistogram (value type). */
struct HistogramSnapshot
{
    std::vector<uint64_t> counts;  //!< per log-linear bucket
    uint64_t total = 0;
    uint64_t sum = 0;  //!< exact sum of recorded values (Prometheus _sum)

    uint64_t count() const { return total; }

    /**
     * Value at quantile @p q in [0, 1] (nearest-rank over buckets,
     * reported as the bucket's representative value — its lower
     * bound, so quantiles never overstate). 0 when empty.
     */
    uint64_t quantile(double q) const;

    /** Largest bucket representative with a nonzero count. */
    uint64_t maxValue() const;

    /** Accumulate another snapshot of the same geometry into this. */
    HistogramSnapshot &merge(const HistogramSnapshot &other);
};

class HistogramBatch;

/**
 * Concurrent wide-range latency histogram. Values are unsigned (ns by
 * convention); buckets are exact below 2^kSubBits and log-linear with
 * 2^kSubBits sub-buckets per octave above, saturating at the overflow
 * bucket past 2^(kMaxExp+1).
 */
class ConcurrentHistogram
{
  public:
    static constexpr unsigned kSubBits = 4;        //!< 16 buckets/octave
    static constexpr unsigned kSubCount = 1u << kSubBits;
    /** Top octave: values up to 2^45 ns ≈ 9.7 h stay resolved. */
    static constexpr unsigned kMaxExp = 44;
    static constexpr std::size_t kBuckets =
        kSubCount + std::size_t(kMaxExp - kSubBits + 1) * kSubCount + 1;

    /** @p shard_count 0 picks a default sized for typical core counts. */
    explicit ConcurrentHistogram(unsigned shard_count = 0);

    ConcurrentHistogram(const ConcurrentHistogram &) = delete;
    ConcurrentHistogram &operator=(const ConcurrentHistogram &) = delete;

    /** Record one value. Lock-free; callable from any thread. */
    void add(uint64_t v);

    /** Record one value into an explicit shard (tests, pinned loops). */
    void addToShard(unsigned shard, uint64_t v);

    /**
     * Fold @p batch in and empty it: the same buckets and sum as one
     * add() per value it holds, for one RMW per touched bucket.
     */
    void merge(HistogramBatch &batch);

    unsigned shardCount() const { return nShards; }

    /** Merge all shards into a coherent value-type snapshot. */
    HistogramSnapshot snapshot() const;

    /** Total samples across shards (relaxed sum). */
    uint64_t count() const;

    /** Reset every bucket to zero (not linearizable vs adders). */
    void clear();

    /** Bucket index of @p v. */
    static std::size_t bucketOf(uint64_t v);

    /** Lower bound (representative value) of bucket @p b. */
    static uint64_t bucketLowerBound(std::size_t b);

  private:
    struct alignas(64) Shard
    {
        std::atomic<uint64_t> counts[kBuckets];
        std::atomic<uint64_t> sum{0};  //!< exact value sum of this shard
    };

    unsigned shardFor() const;

    unsigned nShards;
    std::unique_ptr<Shard[]> shards;
};

/**
 * Single-owner, non-atomic accumulator with ConcurrentHistogram's
 * buckets: a hot loop adds to it with plain increments and folds it
 * into the shared histogram once (ConcurrentHistogram::merge), instead
 * of paying two atomic RMWs per value.
 */
class HistogramBatch
{
  public:
    void
    add(uint64_t v)
    {
        const std::size_t b = ConcurrentHistogram::bucketOf(v);
        ++counts[b];
        sum += v;
        lo = b < lo ? b : lo;
        hi = b >= hi ? b + 1 : hi;
    }

    bool empty() const { return lo >= hi; }

    /** Drop every value added since the last merge. */
    void clear();

  private:
    friend class ConcurrentHistogram;

    std::vector<uint64_t> counts =
        std::vector<uint64_t>(ConcurrentHistogram::kBuckets, 0);
    uint64_t sum = 0;
    std::size_t lo = ConcurrentHistogram::kBuckets;  //!< touched range
    std::size_t hi = 0;
};

} // namespace btrace

#endif // BTRACE_COMMON_LATENCY_HISTOGRAM_H
