/**
 * @file
 * Unit tests for the tracer write API: ScopedWrite RAII semantics
 * (auto-commit, auto-abandon on unwind), record()'s retry-cost
 * charging, and the single-entry lease fallback that keeps baselines
 * comparable with BTrace's batched leases.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "baselines/ftrace_like.h"
#include "trace/tracer.h"

namespace btrace {
namespace {

FtraceConfig
ringConfig()
{
    FtraceConfig cfg;
    cfg.capacityBytes = 64 << 10;
    cfg.cores = 2;
    return cfg;
}

/** Minimal tracer that returns Retry a fixed number of times. */
class RetryNTracer : public Tracer
{
  public:
    explicit RetryNTracer(int retries) : retriesLeft(retries) {}

    std::string name() const override { return "retry-n"; }
    std::size_t capacityBytes() const override { return sizeof(buf); }

    WriteTicket
    allocate(uint16_t core, uint32_t thread,
             uint32_t payload_len) override
    {
        WriteTicket t;
        t.core = core;
        t.thread = thread;
        t.cost = costs.setupOverhead;
        if (retriesLeft > 0) {
            --retriesLeft;
            t.status = AllocStatus::Retry;
            return t;
        }
        t.status = AllocStatus::Ok;
        t.dst = buf;
        t.entrySize =
            static_cast<uint32_t>(EntryLayout::normalSize(payload_len));
        return t;
    }

    void
    confirm(WriteTicket &ticket) override
    {
        ticket.cost += costs.atomicLocal;
        ++confirms;
    }

    Dump dump() override { return {}; }

    int confirms = 0;

  private:
    int retriesLeft;
    alignas(8) uint8_t buf[512] = {};
};

TEST(ScopedWrite, CommitsOnScopeExit)
{
    FtraceLike tr(ringConfig());
    {
        ScopedWrite w(tr, 0, 1, 16);
        ASSERT_TRUE(w.ok());
        w.fill(1, 7);
    }  // destructor confirms
    const Dump d = tr.dump();
    ASSERT_EQ(d.entries.size(), 1u);
    EXPECT_EQ(d.entries[0].stamp, 1u);
    EXPECT_EQ(d.entries[0].category, 7u);
}

TEST(ScopedWrite, ExplicitCommitIsIdempotent)
{
    FtraceLike tr(ringConfig());
    ScopedWrite w(tr, 0, 1, 16);
    ASSERT_TRUE(w.ok());
    w.fill(5);
    w.commit();
    w.commit();  // no double confirm
    EXPECT_EQ(tr.dump().entries.size(), 1u);
}

TEST(ScopedWrite, AbandonDummyFillsTheGrant)
{
    FtraceLike tr(ringConfig());
    {
        ScopedWrite w(tr, 0, 1, 16);
        ASSERT_TRUE(w.ok());
        w.abandon();
    }
    // The space was granted and returned as a dummy: no visible entry.
    EXPECT_EQ(tr.dump().entries.size(), 0u);
}

TEST(ScopedWrite, ExceptionUnwindAutoAbandons)
{
    FtraceLike tr(ringConfig());
    try {
        ScopedWrite w(tr, 0, 1, 16);
        ASSERT_TRUE(w.ok());
        throw std::runtime_error("producer failed mid-write");
    } catch (const std::runtime_error &) {
    }
    // The grant was abandoned, not leaked: the ring stays consistent
    // and later writes still work.
    EXPECT_EQ(tr.dump().entries.size(), 0u);
    ScopedWrite w2(tr, 0, 1, 16);
    ASSERT_TRUE(w2.ok());
    w2.fill(9);
    w2.commit();
    EXPECT_EQ(tr.dump().entries.size(), 1u);
}

TEST(Record, SpinsThroughRetriesThenConfirmsOnce)
{
    // Three failed acquires, then one successful write: record() spins
    // past every Retry and confirms exactly once.
    RetryNTracer tr(3);
    ASSERT_TRUE(tr.record(0, 1, 42, 16));
    EXPECT_EQ(tr.confirms, 1);
}

TEST(LeaseFallback, ServesThroughAllocateAndReportsExhaustion)
{
    FtraceLike tr(ringConfig());
    Lease l = tr.lease(0, 1, 16, 3);
    ASSERT_TRUE(l.ok());
    EXPECT_FALSE(l.batched());

    uint64_t stamp = 0;
    for (int i = 0; i < 3; ++i) {
        WriteTicket t = l.allocate(16);
        ASSERT_TRUE(t.ok());
        EXPECT_FALSE(t.leased);  // served by the ordinary fast path
        writeNormal(t.dst, ++stamp, 0, 1, 0, 16);
        l.confirm(t);
    }
    // Budget of 3 exhausted: renew on the same cadence as a batched
    // lease would.
    WriteTicket t4 = l.allocate(16);
    EXPECT_FALSE(t4.ok());
    l.close();
    EXPECT_EQ(tr.dump().entries.size(), 3u);
}

TEST(LeaseFallback, ScopedWriteServesFromLease)
{
    FtraceLike tr(ringConfig());
    Lease l = tr.lease(0, 1, 16, 2);
    ASSERT_TRUE(l.ok());
    {
        ScopedWrite w(l, 16);
        ASSERT_TRUE(w.ok());
        w.fill(11);
    }
    l.close();
    const Dump d = tr.dump();
    ASSERT_EQ(d.entries.size(), 1u);
    EXPECT_EQ(d.entries[0].stamp, 11u);
}

} // namespace
} // namespace btrace
