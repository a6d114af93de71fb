#include "common/latency_histogram.h"

#include <algorithm>
#include <bit>
#include <thread>

namespace btrace {

namespace {

/**
 * Stable small integer id per thread: assigned once on first use, so
 * a thread keeps hitting the same shard (and the same cache lines)
 * for its whole lifetime instead of hashing a recycled native id.
 */
unsigned
threadOrdinal()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned ordinal =
        next.fetch_add(1, std::memory_order_relaxed);
    return ordinal;
}

} // namespace

uint64_t
HistogramSnapshot::quantile(double q) const
{
    if (total == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Nearest-rank: the smallest bucket whose cumulative count covers
    // rank ceil(q * total), with rank >= 1.
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(q * double(total) + 0.5));
    uint64_t seen = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
        seen += counts[b];
        if (seen >= rank)
            return ConcurrentHistogram::bucketLowerBound(b);
    }
    return ConcurrentHistogram::bucketLowerBound(counts.size() - 1);
}

uint64_t
HistogramSnapshot::maxValue() const
{
    for (std::size_t b = counts.size(); b-- > 0;) {
        if (counts[b] != 0)
            return ConcurrentHistogram::bucketLowerBound(b);
    }
    return 0;
}

HistogramSnapshot &
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    if (counts.empty())
        counts.assign(other.counts.size(), 0);
    for (std::size_t b = 0;
         b < counts.size() && b < other.counts.size(); ++b)
        counts[b] += other.counts[b];
    total += other.total;
    sum += other.sum;
    return *this;
}

ConcurrentHistogram::ConcurrentHistogram(unsigned shard_count)
{
    if (shard_count == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        shard_count = std::clamp(hw, 2u, 16u);
    }
    nShards = shard_count;
    shards = std::make_unique<Shard[]>(nShards);
    clear();
}

std::size_t
ConcurrentHistogram::bucketOf(uint64_t v)
{
    if (v < kSubCount)
        return static_cast<std::size_t>(v);
    const unsigned exp = std::bit_width(v) - 1;  // v in [2^exp, 2^exp+1)
    if (exp > kMaxExp)
        return kBuckets - 1;  // overflow bucket
    const uint64_t sub = (v >> (exp - kSubBits)) - kSubCount;
    return kSubCount +
           std::size_t(exp - kSubBits) * kSubCount +
           static_cast<std::size_t>(sub);
}

uint64_t
ConcurrentHistogram::bucketLowerBound(std::size_t b)
{
    if (b < kSubCount)
        return b;
    if (b >= kBuckets - 1)
        return uint64_t(1) << (kMaxExp + 1);  // overflow representative
    const std::size_t i = b - kSubCount;
    const unsigned exp = kSubBits + unsigned(i / kSubCount);
    const uint64_t sub = i % kSubCount;
    return (uint64_t(kSubCount) + sub) << (exp - kSubBits);
}

unsigned
ConcurrentHistogram::shardFor() const
{
    return threadOrdinal() % nShards;
}

void
ConcurrentHistogram::add(uint64_t v)
{
    addToShard(shardFor(), v);
}

void
ConcurrentHistogram::addToShard(unsigned shard, uint64_t v)
{
    Shard &sh = shards[shard % nShards];
    sh.counts[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    sh.sum.fetch_add(v, std::memory_order_relaxed);
}

void
ConcurrentHistogram::merge(HistogramBatch &batch)
{
    if (batch.empty())
        return;
    Shard &sh = shards[shardFor()];
    for (std::size_t b = batch.lo; b < batch.hi; ++b) {
        if (batch.counts[b] != 0)
            sh.counts[b].fetch_add(batch.counts[b],
                                   std::memory_order_relaxed);
    }
    sh.sum.fetch_add(batch.sum, std::memory_order_relaxed);
    batch.clear();
}

void
HistogramBatch::clear()
{
    if (!empty())
        std::fill(counts.begin() + std::ptrdiff_t(lo),
                  counts.begin() + std::ptrdiff_t(hi), 0);
    sum = 0;
    lo = ConcurrentHistogram::kBuckets;
    hi = 0;
}

HistogramSnapshot
ConcurrentHistogram::snapshot() const
{
    HistogramSnapshot snap;
    snap.counts.assign(kBuckets, 0);
    for (unsigned s = 0; s < nShards; ++s) {
        for (std::size_t b = 0; b < kBuckets; ++b) {
            snap.counts[b] +=
                shards[s].counts[b].load(std::memory_order_relaxed);
        }
        snap.sum += shards[s].sum.load(std::memory_order_relaxed);
    }
    for (const uint64_t c : snap.counts)
        snap.total += c;
    return snap;
}

uint64_t
ConcurrentHistogram::count() const
{
    uint64_t n = 0;
    for (unsigned s = 0; s < nShards; ++s)
        for (std::size_t b = 0; b < kBuckets; ++b)
            n += shards[s].counts[b].load(std::memory_order_relaxed);
    return n;
}

void
ConcurrentHistogram::clear()
{
    for (unsigned s = 0; s < nShards; ++s) {
        for (std::size_t b = 0; b < kBuckets; ++b)
            shards[s].counts[b].store(0, std::memory_order_relaxed);
        shards[s].sum.store(0, std::memory_order_relaxed);
    }
}

} // namespace btrace
