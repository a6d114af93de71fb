/**
 * @file
 * Unit tests for the speculative consumer (§4.3): snapshot semantics,
 * unreadable in-flight blocks, window bounds, and integrity of the
 * returned entries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

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

TEST(Consumer, EmptyTracerDumpsNothing)
{
    BTrace bt(smallConfig());
    const Dump d = bt.dump();
    EXPECT_TRUE(d.entries.empty());
    EXPECT_EQ(d.skippedBlocks, 0u);
    EXPECT_EQ(d.abandonedBlocks, 0u);
}

TEST(Consumer, ReadsPartiallyFilledActiveBlock)
{
    BTrace bt(smallConfig());
    ASSERT_TRUE(bt.record(0, 1, 42, 16));
    const Dump d = bt.dump();
    ASSERT_EQ(d.entries.size(), 1u);
    EXPECT_EQ(d.entries[0].stamp, 42u);
}

TEST(Consumer, DumpIsNonDestructiveAndRepeatable)
{
    BTrace bt(smallConfig());
    for (uint64_t s = 1; s <= 100; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));
    const Dump a = bt.dump();
    const Dump b = bt.dump();
    EXPECT_EQ(a.entries.size(), b.entries.size());
    // Writes continue to work after dumping.
    EXPECT_TRUE(bt.record(0, 1, 101, 16));
}

TEST(Consumer, NoDuplicateStamps)
{
    BTrace bt(smallConfig());
    for (uint64_t s = 1; s <= 3000; ++s)
        ASSERT_TRUE(bt.record(uint16_t(s % 4), 1, s, 16));
    const Dump d = bt.dump();
    std::set<uint64_t> seen;
    for (const DumpEntry &e : d.entries) {
        EXPECT_TRUE(seen.insert(e.stamp).second)
            << "duplicate stamp " << e.stamp;
    }
}

TEST(Consumer, AllRetainedEntriesWereProducedAndIntact)
{
    BTrace bt(smallConfig());
    const uint64_t total = 5000;
    for (uint64_t s = 1; s <= total; ++s)
        ASSERT_TRUE(bt.record(uint16_t(s % 4), uint32_t(s % 7), s, 24));
    const Dump d = bt.dump();
    ASSERT_FALSE(d.entries.empty());
    for (const DumpEntry &e : d.entries) {
        EXPECT_GE(e.stamp, 1u);
        EXPECT_LE(e.stamp, total);
        EXPECT_TRUE(e.payloadOk);
        EXPECT_EQ(e.core, e.stamp % 4);
        EXPECT_EQ(e.thread, e.stamp % 7);
    }
}

TEST(Consumer, NewestEntryAlwaysRetained)
{
    BTrace bt(smallConfig());
    for (uint64_t s = 1; s <= 4000; ++s)
        ASSERT_TRUE(bt.record(uint16_t(s % 4), 1, s, 16));
    const Dump d = bt.dump();
    uint64_t newest = 0;
    for (const DumpEntry &e : d.entries)
        newest = std::max(newest, e.stamp);
    EXPECT_EQ(newest, 4000u);
}

TEST(Consumer, UnconfirmedWriteHidesOnlyItsBlock)
{
    BTrace bt(smallConfig());
    // Core 0 writes confirmed data; core 1 holds an unconfirmed write.
    for (uint64_t s = 1; s <= 10; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));
    WriteTicket held = bt.allocate(1, 9, 16);
    ASSERT_EQ(held.status, AllocStatus::Ok);

    const Dump d = bt.dump();
    EXPECT_EQ(d.entries.size(), 10u);       // core 0 data all readable
    EXPECT_EQ(d.unreadableBlocks, 1u);      // core 1's block hidden

    writeNormal(held.dst, 11, 1, 9, 0, 16);
    bt.confirm(held);
    const Dump d2 = bt.dump();
    EXPECT_EQ(d2.entries.size(), 11u);
    EXPECT_EQ(d2.unreadableBlocks, 0u);
}

TEST(Consumer, RetainedVolumeApproachesCapacityUnderUniformLoad)
{
    // With the paper's geometry ratio (A = N/4 here) and uniform
    // production, the dump should retain most of the buffer.
    BTrace bt(smallConfig(256, 64, 8, 4));
    for (uint64_t s = 1; s <= 20000; ++s)
        ASSERT_TRUE(bt.record(uint16_t(s % 4), 1, s, 16));
    const Dump d = bt.dump();
    double bytes = 0;
    for (const DumpEntry &e : d.entries)
        bytes += e.size;
    // 64 blocks x 256 B = 16 KB capacity; expect > 60 % retained as
    // entry payload (headers/dummies eat some).
    EXPECT_GT(bytes, 0.6 * 16384);
}

TEST(Consumer, DumpSinceReportsOverwrittenPositions)
{
    BTrace bt(smallConfig(256, 32, 8, 1));
    BTraceInspector insp(bt);
    const uint64_t n = 32;  // last-N window = numBlocks

    for (uint64_t s = 1; s <= 5000; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));

    // A cursor at 0 lost everything before the overwrite frontier.
    DumpCursor cursor;
    const uint64_t frontier1 = insp.globalWord().pos - n;
    const Dump d1 = bt.dumpFrom(cursor);
    EXPECT_EQ(d1.overwrittenPositions, frontier1 - 0);
    EXPECT_FALSE(d1.entries.empty());

    // A consumer that kept up loses nothing.
    const Dump d2 = bt.dumpFrom(cursor);
    EXPECT_EQ(d2.overwrittenPositions, 0u);

    // Fall behind again: the loss is exactly from the oldest position
    // not yet read in full (the open block read in part) to the
    // frontier.
    uint64_t lagging = cursor.position;
    for (const DumpCursor::Partial &b : cursor.partial)
        lagging = std::min(lagging, b.position);
    for (uint64_t s = 5001; s <= 10000; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));
    const uint64_t frontier2 = insp.globalWord().pos - n;
    ASSERT_GT(frontier2, lagging);
    const Dump d3 = bt.dumpFrom(cursor);
    EXPECT_EQ(d3.overwrittenPositions, frontier2 - lagging);
}

TEST(Consumer, TornConfirmedCountNeverOverrunsScratch)
{
    // Regression: a non-8-multiple Confirmed count (torn or corrupted
    // metadata word) must degrade to a short read that stays inside
    // the rounded-down length, never to whole words read past it.
    BTrace bt(smallConfig());
    ASSERT_TRUE(bt.record(0, 1, 1, 16));

    BTraceInspector insp(bt);
    const uint64_t pos = insp.coreWord(0).pos;
    const std::size_t m = pos % insp.activeBlocks();
    const RndPos conf = insp.confirmed(m);
    ASSERT_EQ(conf.pos % 8, 0u);

    const RndPos odd{conf.rnd, conf.pos - 4};
    insp.seedMetadata(m, odd, odd);  // alloc == conf: looks readable

    Dump out;
    insp.readBlockRaw(pos, out);

    // The truncated range cannot parse into whole entries; the block
    // must be discarded, not returned torn.
    EXPECT_TRUE(out.entries.empty());
    EXPECT_EQ(out.abandonedBlocks + out.unreadableBlocks, 1u);
}

TEST(Consumer, StoredOffsetStaysInsideTheBlock)
{
    // A streaming cursor keeps, for a block it read in part, the
    // offset where the read stopped: derived from shared words another
    // process can scribble on. Neither Confirmed rewritten below or
    // torn around that offset, nor block bytes rewritten between
    // passes, may make a pass parse outside [offset, capacity) or
    // return an entry twice. Core 1's blocks lie right after core 0's
    // in memory, so a parse that ran past core 0's block would return
    // their entries again.
    BTrace bt(smallConfig(1024, 32, 8, 2));
    BTraceInspector insp(bt);
    DumpCursor cursor;
    std::set<uint64_t> seen;
    const auto pass = [&] {
        std::vector<uint64_t> stamps;
        for (const DumpEntry &e : bt.dumpFrom(cursor).entries) {
            EXPECT_TRUE(e.payloadOk) << "torn entry " << e.stamp;
            EXPECT_TRUE(seen.insert(e.stamp).second)
                << "stamp " << e.stamp << " returned twice";
            stamps.push_back(e.stamp);
        }
        return stamps;
    };

    for (uint64_t s = 1; s <= 5; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));
    for (uint64_t s = 6; s <= 60; ++s)
        ASSERT_TRUE(bt.record(1, 2, s, 16));
    EXPECT_EQ(pass().size(), 60u);

    const uint64_t pos = insp.coreWord(0).pos;
    const std::size_t m = pos % insp.activeBlocks();
    const uint64_t phys = insp.physicalOf(pos);
    const RndPos real = insp.confirmed(m);
    const std::size_t read_to = 16 + 5 * 40;  // header + five entries
    ASSERT_EQ(real.pos, read_to);
    const auto partialOf = [&]() -> DumpCursor::Partial & {
        for (DumpCursor::Partial &b : cursor.partial)
            if (b.position == pos)
                return b;
        ADD_FAILURE() << "core 0's block is not remembered";
        return cursor.partial.front();
    };
    ASSERT_EQ(partialOf().offset, read_to);

    // Confirmed below the offset, torn just past it, and torn into the
    // unwritten rest of the block: no entry.
    for (const uint32_t bad : {uint32_t(read_to - 40), uint32_t(read_to + 4),
                               uint32_t(read_to + 44)}) {
        insp.seedMetadata(m, RndPos{real.rnd, bad}, RndPos{real.rnd, bad});
        EXPECT_TRUE(pass().empty()) << "Confirmed " << bad;
    }
    insp.seedMetadata(m, real, real);

    // An offset of its own past the capacity or off the entry grid
    // parses nothing either.
    for (const std::size_t bad : {std::size_t(1032), std::size_t(1) << 40,
                                  read_to + 4, std::size_t(8)}) {
        partialOf().offset = bad;
        EXPECT_TRUE(pass().empty()) << "offset " << bad;
    }
    partialOf().offset = read_to;

    // Unread bytes rewritten: a descriptor claiming a size past the
    // block, then a header naming another position. The pass returns
    // nothing and comes back; rewritten bytes already read are never
    // parsed again.
    ASSERT_TRUE(bt.record(0, 1, 61, 16));
    ASSERT_TRUE(bt.record(0, 1, 62, 16));
    const uint64_t desc = insp.blockWord(phys, read_to);
    insp.seedBlockWord(phys, read_to,
                       Descriptor::pack(EntryType::Normal, 0, 4096));
    insp.seedBlockWord(phys, 16 + 24, ~uint64_t(0));  // stamp 1's payload
    EXPECT_TRUE(pass().empty());
    insp.seedBlockWord(phys, read_to, desc);
    const uint64_t header_pos = insp.blockWord(phys, 8);
    insp.seedBlockWord(phys, 8, header_pos + 1);
    EXPECT_TRUE(pass().empty());
    insp.seedBlockWord(phys, 8, header_pos);
    EXPECT_EQ(pass(), (std::vector<uint64_t>{61, 62}));
    EXPECT_TRUE(pass().empty());

    // Confirmed past the capacity reads as a complete block: parsed up
    // to the capacity at most, then found torn. Near the frontier it
    // is read again next pass, uncharged; a last pass gives it up.
    insp.seedMetadata(m, RndPos{real.rnd, 5000}, RndPos{real.rnd, 5000});
    const Dump retried = bt.dumpFrom(cursor);
    EXPECT_TRUE(retried.entries.empty());
    EXPECT_EQ(retried.abandonedBlocks, 0u);
    const Dump torn = bt.dumpFrom(cursor, DumpOptions{.lastPass = true});
    EXPECT_TRUE(torn.entries.empty());
    EXPECT_EQ(torn.abandonedBlocks, 1u);
}

TEST(Consumer, ReusedDumpHoldsOnlyTheNewPass)
{
    BTrace bt(smallConfig());
    for (uint64_t s = 1; s <= 5; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));

    // A dump still holding an earlier pass's entries and loss counts.
    Dump d;
    d.entries.assign(100, DumpEntry{999, 8, 3, 3, 3, false});
    d.skippedBlocks = 7;
    d.abandonedBlocks = 7;
    d.unreadableBlocks = 7;
    d.overwrittenPositions = 7;
    const std::size_t capacity = d.entries.capacity();

    DumpCursor cursor;
    const DumpOptions opts{.closeActive = true};
    bt.dumpFrom(cursor, opts, d);
    std::vector<uint64_t> stamps;
    for (const DumpEntry &e : d.entries)
        stamps.push_back(e.stamp);
    EXPECT_EQ(stamps, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
    EXPECT_EQ(d.skippedBlocks, 0u);
    EXPECT_EQ(d.abandonedBlocks, 0u);
    EXPECT_EQ(d.unreadableBlocks, 0u);
    EXPECT_EQ(d.overwrittenPositions, 0u);
    EXPECT_EQ(d.entries.capacity(), capacity);  // reused, not reallocated

    // Nothing new: the next pass into the same dump comes back empty.
    bt.dumpFrom(cursor, opts, d);
    EXPECT_TRUE(d.entries.empty());

    ASSERT_TRUE(bt.record(0, 1, 6, 16));
    bt.dumpFrom(cursor, opts, d);
    ASSERT_EQ(d.entries.size(), 1u);
    EXPECT_EQ(d.entries[0].stamp, 6u);
}

TEST(Consumer, ManyConcurrentDumpGuardsAllowed)
{
    // The epoch registry has bounded slots; sequential dumps must
    // recycle them indefinitely.
    BTrace bt(smallConfig());
    ASSERT_TRUE(bt.record(0, 1, 1, 16));
    for (int i = 0; i < 100; ++i)
        bt.dump();
    SUCCEED();
}

} // namespace
} // namespace btrace
