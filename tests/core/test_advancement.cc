/**
 * @file
 * Unit tests for block advancement (§4.2): closing lagging blocks
 * (§3.2), skipping blocks held by preempted writers (§3.4), stolen
 * core blocks, and the metadata round mapping (§3.3).
 */

#include <gtest/gtest.h>

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

TEST(Advancement, WrapAroundReusesBlocks)
{
    // One core writes 10x the buffer; positions must wrap and reuse
    // physical blocks without losing the newest capacity-worth.
    BTrace bt(smallConfig(256, 32, 8, 1));
    BTraceInspector insp(bt);
    for (uint64_t s = 1; s <= 2000; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));
    const RatioPos g = insp.globalWord();
    EXPECT_GT(g.pos, 32u);  // wrapped several times
    EXPECT_GT(bt.countersSnapshot().advances, 32u);
}

TEST(Advancement, ClosesLaggingBlockOfIdleCore)
{
    // Core 1 writes one entry then goes idle; core 0 floods the
    // buffer. Core 1's lagging block must be closed by core 0's
    // advancement (§3.2), visible as a close event and dummy bytes.
    BTrace bt(smallConfig());
    ASSERT_TRUE(bt.record(1, 9, 1, 16));
    for (uint64_t s = 2; s <= 1000; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));
    EXPECT_GT(bt.countersSnapshot().closes, 0u);
    EXPECT_GT(bt.countersSnapshot().dummyBytes, 0u);
}

TEST(Advancement, IdleCoreRecoversAfterItsBlockWasStolen)
{
    BTrace bt(smallConfig());
    ASSERT_TRUE(bt.record(1, 9, 1, 16));
    for (uint64_t s = 2; s <= 1000; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));
    // Core 1 comes back; its old block is long gone.
    ASSERT_TRUE(bt.record(1, 9, 1001, 16));
    const Dump d = bt.dump();
    bool found = false;
    for (const DumpEntry &e : d.entries)
        found |= e.stamp == 1001;
    EXPECT_TRUE(found);
}

TEST(Advancement, SkipsBlockHeldByPreemptedWriter)
{
    // A writer allocates but does not confirm (preempted). Flooding
    // the buffer forces wrap-around producers to skip that metadata
    // block every round (§3.4) instead of blocking.
    BTrace bt(smallConfig());
    WriteTicket held = bt.allocate(1, 42, 16);
    ASSERT_EQ(held.status, AllocStatus::Ok);

    for (uint64_t s = 1; s <= 2000; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));
    EXPECT_GT(bt.countersSnapshot().skips, 0u);

    // The preempted writer finally confirms; the system keeps going
    // and the metadata becomes reusable.
    writeNormal(held.dst, 9999, 1, 42, 0, 16);
    bt.confirm(held);
    for (uint64_t s = 2001; s <= 3000; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));
}

TEST(Advancement, SkipMarkersVisibleToConsumer)
{
    BTrace bt(smallConfig());
    WriteTicket held = bt.allocate(1, 42, 16);
    ASSERT_EQ(held.status, AllocStatus::Ok);
    for (uint64_t s = 1; s <= 2000; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));
    const Dump d = bt.dump();
    EXPECT_GT(d.skippedBlocks + d.unreadableBlocks, 0u);
    writeNormal(held.dst, 1, 1, 42, 0, 16);
    bt.confirm(held);
}

TEST(Advancement, AllMetadataHeldReturnsRetryNotDeadlock)
{
    // Hold a preempted (unconfirmed) write on every metadata block's
    // round: advancement must give up with Retry, never hang.
    BTraceConfig cfg = smallConfig(256, 8, 8, 8);  // ratio 1: N == A
    BTrace bt(cfg);
    std::vector<WriteTicket> held;
    for (uint16_t c = 0; c < 8; ++c) {
        WriteTicket t = bt.allocate(c, 100u + c, 16);
        ASSERT_EQ(t.status, AllocStatus::Ok);
        held.push_back(t);
    }
    // Fill the remainder of every block so each core must advance,
    // finding every candidate incomplete.
    WriteTicket t;
    int ok = 0, retry = 0;
    for (int i = 0; i < 200; ++i) {
        t = bt.allocate(0, 1, 16);
        if (t.status == AllocStatus::Ok) {
            writeNormal(t.dst, uint64_t(i + 1000), 0, 1, 0, 16);
            bt.confirm(t);
            ++ok;
        } else {
            ASSERT_EQ(t.status, AllocStatus::Retry);
            ++retry;
            break;  // Retry reached without deadlock: success
        }
    }
    EXPECT_GT(retry, 0);

    // Release the held writes: progress resumes.
    for (auto &h : held) {
        writeNormal(h.dst, 5000, h.core, h.thread, 0, 16);
        bt.confirm(h);
    }
    EXPECT_TRUE(bt.record(0, 1, 6000, 16));
}

TEST(Advancement, RoundMappingMatchesPositionArithmetic)
{
    // After a deterministic fill, each metadata block's confirmed
    // round r and index m must reconstruct a position p = r*A + m
    // whose physical block (p mod N) holds a header with exactly p.
    BTrace bt(smallConfig());
    BTraceInspector insp(bt);
    for (uint64_t s = 1; s <= 3000; ++s)
        ASSERT_TRUE(bt.record(uint16_t(s % 4), 1, s, 16));

    const std::size_t a = insp.activeBlocks();
    for (std::size_t m = 0; m < a; ++m) {
        const RndPos conf = insp.confirmed(m);
        if (conf.rnd == 0)
            continue;
        const uint64_t pos = uint64_t(conf.rnd) * a + m;
        const uint8_t *blk = insp.blockData(insp.physicalOf(pos));
        EntryCursor cur(blk, EntryLayout::blockHeaderBytes);
        EntryView v;
        ASSERT_TRUE(cur.next(v));
        if (v.type == EntryType::BlockHeader) {
            EXPECT_EQ(v.stamp, pos) << "metadata " << m;
        }
        // (Skip markers may legitimately replace a header.)
    }
}

TEST(Advancement, GlobalPositionMonotonicUnderChurn)
{
    BTrace bt(smallConfig());
    BTraceInspector insp(bt);
    uint64_t prev = insp.globalWord().pos;
    for (uint64_t s = 1; s <= 2000; ++s) {
        ASSERT_TRUE(bt.record(uint16_t(s % 4), 1, s, 16));
        const uint64_t now = insp.globalWord().pos;
        ASSERT_GE(now, prev);
        prev = now;
    }
}

TEST(Advancement, EntryLargerThanRemainderNeverSplits)
{
    // Alternate small and near-block-size entries; every dumped entry
    // must parse cleanly (no straddle).
    BTraceConfig cfg = smallConfig(512, 32, 8, 1);
    BTrace bt(cfg);
    const uint32_t big_payload =
        uint32_t(cfg.maxPayloadBytes());
    for (uint64_t s = 1; s <= 300; ++s) {
        const uint32_t payload = s % 3 == 0 ? big_payload : 16;
        ASSERT_TRUE(bt.record(0, 1, s, payload));
    }
    const Dump d = bt.dump();
    EXPECT_GT(d.entries.size(), 0u);
    for (const DumpEntry &e : d.entries)
        EXPECT_TRUE(e.payloadOk);
}

} // namespace
} // namespace btrace
