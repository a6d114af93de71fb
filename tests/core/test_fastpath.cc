/**
 * @file
 * Unit tests for BTrace's fast-path write (§4.1): allocation within a
 * block, out-of-order confirmation, boundary dummy fills, and the
 * byte-accounting invariant.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/prng.h"
#include "core/btrace.h"
#include "inspector.h"

namespace btrace {
namespace {

BTraceConfig
smallConfig(std::size_t block = 256, std::size_t blocks = 32,
            std::size_t active = 8, unsigned cores = 4)
{
    BTraceConfig cfg;
    cfg.blockSize = block;
    cfg.numBlocks = blocks;
    cfg.activeBlocks = active;
    cfg.cores = cores;
    return cfg;
}

TEST(FastPath, FirstWriteTriggersAdvancementThenSucceeds)
{
    BTrace bt(smallConfig());
    const WriteTicket t = bt.allocate(0, 1, 16);
    ASSERT_EQ(t.status, AllocStatus::Ok);
    EXPECT_NE(t.dst, nullptr);
    EXPECT_EQ(t.entrySize, EntryLayout::normalSize(16));
    EXPECT_EQ(bt.countersSnapshot().advances, 1u);
}

TEST(FastPath, SecondWriteOnSameCoreIsFast)
{
    BTrace bt(smallConfig());
    WriteTicket a = bt.allocate(0, 1, 16);
    writeNormal(a.dst, 1, 0, 1, 0, 16);
    bt.confirm(a);

    const uint64_t advances = bt.countersSnapshot().advances;
    WriteTicket b = bt.allocate(0, 1, 16);
    ASSERT_EQ(b.status, AllocStatus::Ok);
    EXPECT_EQ(bt.countersSnapshot().advances, advances);
    // Consecutive allocations are adjacent in the same block.
    EXPECT_EQ(b.dst, a.dst + a.entrySize);
    writeNormal(b.dst, 2, 0, 1, 0, 16);
    bt.confirm(b);
}

TEST(FastPath, DistinctCoresGetDistinctBlocks)
{
    BTrace bt(smallConfig());
    WriteTicket a = bt.allocate(0, 1, 16);
    WriteTicket b = bt.allocate(1, 2, 16);
    ASSERT_EQ(a.status, AllocStatus::Ok);
    ASSERT_EQ(b.status, AllocStatus::Ok);
    // Blocks are 256 bytes; different cores' targets must not be in
    // the same block.
    const auto diff = a.dst > b.dst ? a.dst - b.dst : b.dst - a.dst;
    EXPECT_GE(diff, 256u - 64);
    writeNormal(a.dst, 1, 0, 1, 0, 16);
    writeNormal(b.dst, 2, 1, 2, 0, 16);
    bt.confirm(a);
    bt.confirm(b);
}

TEST(FastPath, OutOfOrderConfirmation)
{
    // T0 allocates, T1 allocates and confirms first (§4.1 Fig 8b).
    BTrace bt(smallConfig());
    WriteTicket t0 = bt.allocate(0, 10, 16);
    WriteTicket t1 = bt.allocate(0, 11, 16);
    ASSERT_EQ(t0.status, AllocStatus::Ok);
    ASSERT_EQ(t1.status, AllocStatus::Ok);

    writeNormal(t1.dst, 2, 0, 11, 0, 16);
    bt.confirm(t1);  // out of allocation order

    // The block is not yet readable: t0 is unconfirmed.
    Dump d = bt.dump();
    EXPECT_EQ(d.entries.size(), 0u);
    EXPECT_EQ(d.unreadableBlocks, 1u);

    writeNormal(t0.dst, 1, 0, 10, 0, 16);
    bt.confirm(t0);
    d = bt.dump();
    EXPECT_EQ(d.entries.size(), 2u);
}

TEST(FastPath, BoundaryFillWritesDummyAndAdvances)
{
    // Block 256: header 16 + 5x40 = 216, leaving 40; an entry of 48
    // does not fit and must trigger a dummy fill + advancement
    // (§4.1 Fig 8c).
    BTrace bt(smallConfig());
    for (int i = 0; i < 5; ++i) {
        WriteTicket t = bt.allocate(0, 1, 16);  // 40 bytes each
        ASSERT_EQ(t.status, AllocStatus::Ok);
        writeNormal(t.dst, uint64_t(i + 1), 0, 1, 0, 16);
        bt.confirm(t);
    }
    const uint64_t fills = bt.countersSnapshot().boundaryFills;
    WriteTicket big = bt.allocate(0, 1, 24);  // 48 bytes
    ASSERT_EQ(big.status, AllocStatus::Ok);
    EXPECT_EQ(bt.countersSnapshot().boundaryFills, fills + 1);
    EXPECT_GT(bt.countersSnapshot().dummyBytes, 0u);
    writeNormal(big.dst, 6, 0, 1, 0, 24);
    bt.confirm(big);

    // All six entries must be retrievable despite the gap.
    Dump d = bt.dump();
    std::size_t normals = 0;
    for (const DumpEntry &e : d.entries)
        normals += e.stamp >= 1 && e.stamp <= 6;
    EXPECT_EQ(normals, 6u);
}

TEST(FastPath, ExactFitLeavesNoDummy)
{
    // Block 256: header 16 + 240 payload area; entries of 40 bytes,
    // 6 x 40 = 240 exactly.
    BTrace bt(smallConfig());
    for (int i = 0; i < 6; ++i) {
        WriteTicket t = bt.allocate(0, 1, 16);
        ASSERT_EQ(t.status, AllocStatus::Ok);
        writeNormal(t.dst, uint64_t(i + 1), 0, 1, 0, 16);
        bt.confirm(t);
    }
    EXPECT_EQ(bt.countersSnapshot().boundaryFills, 0u);
    // The next allocation overshoots without a fill.
    WriteTicket t = bt.allocate(0, 1, 16);
    ASSERT_EQ(t.status, AllocStatus::Ok);
    EXPECT_EQ(bt.countersSnapshot().boundaryFills, 0u);
    writeNormal(t.dst, 7, 0, 1, 0, 16);
    bt.confirm(t);
}

TEST(FastPath, ConfirmedBytesReachCapacityOnFilledBlocks)
{
    BTrace bt(smallConfig());
    BTraceInspector insp(bt);
    for (uint64_t s = 1; s <= 200; ++s) {
        const bool ok = bt.record(0, 1, s, 16);
        ASSERT_TRUE(ok);
    }
    // Every non-current metadata block of core 0's history must be
    // fully confirmed (the §3.3 invariant).
    const RatioPos core0 = insp.coreWord(0);
    for (std::size_t m = 0; m < insp.activeBlocks(); ++m) {
        const RndPos conf = insp.confirmed(m);
        if (m == core0.pos % insp.activeBlocks())
            continue;  // current block may be partial
        if (conf.rnd == 0)
            continue;  // never used
        EXPECT_EQ(conf.pos, 256u) << "metadata " << m;
    }
}

TEST(FastPath, CostIncludesTimestampAndAtomics)
{
    BTrace bt(smallConfig());
    WriteTicket warm = bt.allocate(0, 1, 16);
    writeNormal(warm.dst, 1, 0, 1, 0, 16);
    bt.confirm(warm);

    WriteTicket t = bt.allocate(0, 1, 16);
    const CostModel &m = CostModel::def();
    EXPECT_GE(t.cost, m.tscRead + m.atomicLocal);
    EXPECT_LT(t.cost, 200.0);  // fast path stays tens of ns
    const double pre = t.cost;
    writeNormal(t.dst, 2, 0, 1, 0, 16);
    bt.confirm(t);
    EXPECT_GT(t.cost, pre);
}

TEST(FastPath, RecordHelperRoundTrips)
{
    BTrace bt(smallConfig());
    EXPECT_TRUE(bt.record(2, 5, 99, 32, 7));
    const Dump d = bt.dump();
    ASSERT_EQ(d.entries.size(), 1u);
    EXPECT_EQ(d.entries[0].stamp, 99u);
    EXPECT_EQ(d.entries[0].core, 2u);
    EXPECT_EQ(d.entries[0].thread, 5u);
    EXPECT_EQ(d.entries[0].category, 7u);
    EXPECT_TRUE(d.entries[0].payloadOk);
}

void
expectSameCounters(const BTraceCounters::Snapshot &a,
                   const BTraceCounters::Snapshot &b)
{
    EXPECT_EQ(a.fastAllocs, b.fastAllocs);
    EXPECT_EQ(a.boundaryFills, b.boundaryFills);
    EXPECT_EQ(a.staleAllocs, b.staleAllocs);
    EXPECT_EQ(a.advances, b.advances);
    EXPECT_EQ(a.skips, b.skips);
    EXPECT_EQ(a.closes, b.closes);
    EXPECT_EQ(a.lockRaces, b.lockRaces);
    EXPECT_EQ(a.coreRaces, b.coreRaces);
    EXPECT_EQ(a.wouldBlock, b.wouldBlock);
    EXPECT_EQ(a.dummyBytes, b.dummyBytes);
    EXPECT_EQ(a.resizes, b.resizes);
    EXPECT_EQ(a.sharedRmws, b.sharedRmws);
    EXPECT_EQ(a.leases, b.leases);
    EXPECT_EQ(a.leaseEntries, b.leaseEntries);
    EXPECT_EQ(a.leasedOutstanding, b.leasedOutstanding);
}

TEST(RecordPath, DirectWriteMatchesTwoPhaseWrite)
{
    // record() must be exactly allocate + writeNormal + confirm: the
    // same bytes in every block and the same counters, across block
    // boundaries (tail fills), advances and wrap-around closes.
    const BTraceConfig cfg = smallConfig(1024, 32, 8, 4);
    BTrace direct(cfg);
    BTrace twoPhase(cfg);

    Prng rng(20);
    uint64_t bytes = 0;
    for (uint64_t stamp = 1; stamp <= 600; ++stamp) {
        const auto core = static_cast<uint16_t>(rng.nextBounded(4));
        const auto thread = static_cast<uint32_t>(10 + core);
        const auto payload = static_cast<uint32_t>(rng.nextBounded(521));
        const auto category = static_cast<uint16_t>(rng.nextBounded(16));
        bytes += EntryLayout::normalSize(payload);

        ASSERT_TRUE(direct.record(core, thread, stamp, payload, category));

        WriteTicket t = twoPhase.allocate(core, thread, payload);
        ASSERT_EQ(t.status, AllocStatus::Ok);
        writeNormal(t.dst, stamp, core, thread, category, payload);
        twoPhase.confirm(t);
    }
    // The sequence laps the 32 KiB ring several times over.
    ASSERT_GT(bytes, 4 * cfg.numBlocks * cfg.blockSize);

    const BTraceInspector a(direct);
    const BTraceInspector b(twoPhase);
    for (uint64_t phys = 0; phys < cfg.numBlocks; ++phys)
        EXPECT_EQ(std::memcmp(a.blockData(phys), b.blockData(phys),
                              cfg.blockSize),
                  0)
            << "block " << phys;
    const BTraceCounters::Snapshot ca = direct.countersSnapshot();
    expectSameCounters(ca, twoPhase.countersSnapshot());
    EXPECT_EQ(ca.fastAllocs, 600u);
    EXPECT_GT(ca.advances, 4 * cfg.numBlocks);
    EXPECT_GT(ca.boundaryFills, 0u);
}

TEST(FastPath, ManyWritesNeverLoseConfirmedData)
{
    // Fill far beyond capacity; the last capacity-worth of stamps must
    // be retrievable as a contiguous suffix.
    BTrace bt(smallConfig(256, 32, 8, 1));
    const uint64_t total = 5000;
    for (uint64_t s = 1; s <= total; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));
    Dump d = bt.dump();
    ASSERT_FALSE(d.entries.empty());
    uint64_t newest = 0;
    for (const DumpEntry &e : d.entries)
        newest = std::max(newest, e.stamp);
    EXPECT_EQ(newest, total);
}

} // namespace
} // namespace btrace
