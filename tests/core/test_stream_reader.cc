/**
 * @file
 * Unit tests for the incremental consumer dumpFrom() (§4.3
 * daemon-collector mode): cursor semantics, no duplicates across
 * polls, streaming reads of open blocks' confirmed entries,
 * close-on-read of active blocks, and frontier catch-up.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/btrace.h"

#include "inspector.h"

namespace btrace {
namespace {

BTraceConfig
smallConfig()
{
    BTraceConfig cfg;
    cfg.blockSize = 256;
    cfg.numBlocks = 64;
    cfg.activeBlocks = 8;
    cfg.cores = 4;
    return cfg;
}

/** Room for 25 records of 16 payload bytes per block. */
BTraceConfig
streamConfig()
{
    BTraceConfig cfg = smallConfig();
    cfg.blockSize = 1024;
    return cfg;
}

std::vector<uint64_t>
stampRange(uint64_t first, uint64_t last)
{
    std::vector<uint64_t> out;
    for (uint64_t s = first; s <= last; ++s)
        out.push_back(s);
    return out;
}

/** The pass's stamps in order; each must be new to @p seen. */
std::vector<uint64_t>
newStamps(const Dump &d, std::set<uint64_t> &seen)
{
    std::vector<uint64_t> out;
    for (const DumpEntry &e : d.entries) {
        EXPECT_TRUE(e.payloadOk);
        EXPECT_TRUE(seen.insert(e.stamp).second)
            << "stamp " << e.stamp << " returned twice";
        out.push_back(e.stamp);
    }
    return out;
}

TEST(StreamReader, PollsAreDisjointAndOrdered)
{
    BTrace bt(smallConfig());
    DumpCursor cursor;
    std::set<uint64_t> seen;
    uint64_t stamp = 0;
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 100; ++i) {
            const uint64_t s = ++stamp;
            ASSERT_TRUE(bt.record(uint16_t(s % 4), 1, s, 16));
        }
        const Dump d = bt.dumpFrom(cursor);
        for (const DumpEntry &e : d.entries) {
            EXPECT_TRUE(e.payloadOk);
            EXPECT_TRUE(seen.insert(e.stamp).second)
                << "stamp " << e.stamp << " returned twice";
        }
    }
}

TEST(StreamReader, CloseActiveFlushesCurrentBlocks)
{
    BTrace bt(smallConfig());
    for (uint64_t s = 1; s <= 10; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));

    // A streaming poll returns the core's open block's confirmed
    // entries without closing it.
    DumpCursor passive_cursor;
    const Dump passive = bt.dumpFrom(passive_cursor);
    EXPECT_EQ(passive.entries.size(), 10u);
    EXPECT_EQ(bt.countersSnapshot().closes, 0u);

    // Close-on-read forces the block shut and returns everything.
    DumpCursor cursor;
    const Dump flushed = bt.dumpFrom(cursor, DumpOptions{.closeActive = true});
    EXPECT_EQ(flushed.entries.size(), 10u);
    EXPECT_GT(bt.countersSnapshot().closes, 0u);

    // Producers keep working afterwards, in a fresh block.
    ASSERT_TRUE(bt.record(0, 1, 11, 16));
    const Dump next = bt.dumpFrom(cursor, DumpOptions{.closeActive = true});
    ASSERT_EQ(next.entries.size(), 1u);
    EXPECT_EQ(next.entries[0].stamp, 11u);
}

TEST(StreamReader, StreamingReadsConfirmedPrefix)
{
    BTrace bt(streamConfig());
    DumpCursor cursor;
    std::set<uint64_t> seen;
    const auto expectNoClose = [&](const BTraceCounters::Snapshot &was) {
        const BTraceCounters::Snapshot now = bt.countersSnapshot();
        EXPECT_EQ(now.closes, was.closes);
        EXPECT_EQ(now.dummyBytes, was.dummyBytes);
    };

    // Ten records leave core 0's block partly filled; one streaming
    // pass returns all of them and closes nothing.
    for (uint64_t s = 1; s <= 10; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));
    BTraceCounters::Snapshot was = bt.countersSnapshot();
    EXPECT_EQ(newStamps(bt.dumpFrom(cursor), seen), stampRange(1, 10));
    expectNoClose(was);

    // The next pass reads on from where the previous one stopped.
    for (uint64_t s = 11; s <= 15; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));
    was = bt.countersSnapshot();
    EXPECT_EQ(newStamps(bt.dumpFrom(cursor), seen), stampRange(11, 15));
    expectNoClose(was);

    // Filling the block (and opening the next) returns the rest.
    for (uint64_t s = 16; s <= 40; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));
    EXPECT_EQ(newStamps(bt.dumpFrom(cursor), seen), stampRange(16, 40));
    EXPECT_TRUE(bt.dumpFrom(cursor).entries.empty());
}

TEST(StreamReader, OpenBlockDoesNotHoldBackLaterBlocks)
{
    BTrace bt(streamConfig());
    DumpCursor cursor;
    // Core 0 holds the oldest block, partly filled; core 1 completes
    // three blocks after it and fills a fourth.
    for (uint64_t s = 1; s <= 3; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));
    for (uint64_t s = 4; s <= 103; ++s)
        ASSERT_TRUE(bt.record(1, 2, s, 16));

    const Dump d = bt.dumpFrom(cursor);
    std::set<uint64_t> core1;
    for (const DumpEntry &e : d.entries)
        if (e.core == 1)
            core1.insert(e.stamp);
    EXPECT_EQ(core1.size(), 100u);
    EXPECT_EQ(d.entries.size(), 103u);
}

TEST(StreamReader, UnconfirmedWriteHoldsOnlyItsBlock)
{
    {
        // A writer preempted between allocate() and confirm() hides
        // its block's entries written since the last pass, and no
        // other block's.
        BTrace bt(streamConfig());
        DumpCursor cursor;
        std::set<uint64_t> seen;
        for (uint64_t s = 1; s <= 3; ++s)
            ASSERT_TRUE(bt.record(0, 1, s, 16));
        EXPECT_EQ(newStamps(bt.dumpFrom(cursor), seen), stampRange(1, 3));

        ASSERT_TRUE(bt.record(0, 1, 4, 16));
        WriteTicket held = bt.allocate(0, 1, 16);
        ASSERT_EQ(held.status, AllocStatus::Ok);
        writeNormal(held.dst, 5, 0, 1, 0, 16);
        ASSERT_TRUE(bt.record(0, 1, 6, 16));
        for (uint64_t s = 7; s <= 9; ++s)
            ASSERT_TRUE(bt.record(1, 2, s, 16));
        const Dump held_pass = bt.dumpFrom(cursor);
        EXPECT_EQ(newStamps(held_pass, seen), stampRange(7, 9));
        EXPECT_EQ(held_pass.unreadableBlocks, 0u);

        bt.confirm(held);
        EXPECT_EQ(newStamps(bt.dumpFrom(cursor), seen), stampRange(4, 6));
        EXPECT_TRUE(bt.dumpFrom(cursor).entries.empty());
    }
    {
        // An open lease does the same; closing it hands its unused
        // tail back and publishes what it served.
        BTrace bt(streamConfig());
        DumpCursor cursor;
        std::set<uint64_t> seen;
        for (uint64_t s = 1; s <= 3; ++s)
            ASSERT_TRUE(bt.record(0, 1, s, 16));
        EXPECT_EQ(newStamps(bt.dumpFrom(cursor), seen), stampRange(1, 3));

        Lease lease = bt.lease(0, 1, 16, 8);
        ASSERT_TRUE(lease.ok());
        for (uint64_t s = 4; s <= 5; ++s) {
            WriteTicket t = lease.allocate(16);
            ASSERT_TRUE(t.ok());
            writeNormal(t.dst, s, 0, 1, 0, 16);
            lease.confirm(t);
        }
        for (uint64_t s = 6; s <= 8; ++s)
            ASSERT_TRUE(bt.record(1, 2, s, 16));
        EXPECT_EQ(newStamps(bt.dumpFrom(cursor), seen), stampRange(6, 8));

        const uint64_t dummies = bt.countersSnapshot().dummyBytes;
        lease.close();
        EXPECT_EQ(bt.countersSnapshot().dummyBytes, dummies);  // given back
        EXPECT_EQ(newStamps(bt.dumpFrom(cursor), seen), stampRange(4, 5));
        EXPECT_TRUE(bt.dumpFrom(cursor).entries.empty());
    }
}

TEST(StreamReader, LappedOpenBlockCountsOnce)
{
    BTrace bt(streamConfig());
    BTraceInspector insp(bt);
    const uint64_t n = 64;  // last-N window = numBlocks

    // Core 0's block stays open behind three complete blocks of core
    // 1's and core 1's open fourth; one pass reads all five and
    // remembers the two open ones.
    DumpCursor cursor;
    uint64_t s = 0;
    ASSERT_TRUE(bt.record(0, 1, ++s, 16));
    while (s < 91)
        ASSERT_TRUE(bt.record(1, 2, ++s, 16));
    EXPECT_EQ(bt.dumpFrom(cursor).entries.size(), 91u);
    const uint64_t read_to = cursor.position;

    // Core 1 laps the ring, both open blocks included.
    while (insp.globalWord().pos < read_to + 2 * n)
        ASSERT_TRUE(bt.record(1, 2, ++s, 16));
    const uint64_t frontier = insp.globalWord().pos - n;
    const Dump d = bt.dumpFrom(cursor);
    // Each lapped open block is one lost position, on top of every
    // position from where the last pass stopped to the frontier.
    EXPECT_EQ(d.overwrittenPositions, 2 + (frontier - read_to));
    EXPECT_FALSE(d.entries.empty());
}

/**
 * Core 1's write left open pins its metadata slot, so every advance
 * that lands on the slot writes a skip marker there (§3.4) while core
 * 0 writes 3,000 records with a pass after each.
 */
void
expectSkipsHoldNothingBack(bool closeActive)
{
    BTrace bt(smallConfig());
    WriteTicket held = bt.allocate(1, 2, 16);
    ASSERT_TRUE(held.ok());
    DumpCursor cursor;
    const DumpOptions opts{.closeActive = closeActive};
    std::set<uint64_t> seen;
    uint64_t skipped = 0, unreadable = 0;
    const auto pass = [&] {
        const Dump d = bt.dumpFrom(cursor, opts);
        skipped += d.skippedBlocks;
        unreadable += d.unreadableBlocks;
        return newStamps(d, seen);
    };

    // A skipped position holds no record: every pass walks past it,
    // counts it, and returns every record confirmed so far.
    for (uint64_t s = 1; s <= 3000; ++s) {
        ASSERT_TRUE(bt.record(0, 1, s, 16));
        pass();
        ASSERT_EQ(seen.size(), s) << "records held back after " << s;
    }
    const uint64_t skips = bt.countersSnapshot().skips;
    EXPECT_GT(skips, 0u);
    EXPECT_EQ(skipped, skips);
    // The held block is given up once, when the producers have moved
    // more than 2 x activeBlocks positions past it.
    EXPECT_EQ(unreadable, 1u);

    // Producers quiet: a pass after the last write has nothing left.
    EXPECT_TRUE(pass().empty());
    EXPECT_EQ(skipped, skips);
    writeNormal(held.dst, 9999, 1, 2, 0, 16);
    bt.confirm(held);
}

TEST(StreamReader, SkippedPositionHoldsNothingBack)
{
    {
        SCOPED_TRACE("streaming");
        expectSkipsHoldNothingBack(false);
    }
    {
        SCOPED_TRACE("close-on-read");
        expectSkipsHoldNothingBack(true);
    }
}

TEST(StreamReader, StaleCursorSnapsToWindow)
{
    BTrace bt(smallConfig());
    DumpCursor cursor;
    uint64_t stamp = 0;
    for (int i = 0; i < 50; ++i)
        ASSERT_TRUE(bt.record(0, 1, ++stamp, 16));
    bt.dumpFrom(cursor, DumpOptions{.closeActive = true});

    // Lap the buffer several times while the reader sleeps.
    for (int i = 0; i < 5000; ++i)
        ASSERT_TRUE(bt.record(0, 1, ++stamp, 16));

    const Dump d = bt.dumpFrom(cursor, DumpOptions{.closeActive = true});
    ASSERT_FALSE(d.entries.empty());
    uint64_t newest = 0;
    for (const DumpEntry &e : d.entries)
        newest = std::max(newest, e.stamp);
    EXPECT_EQ(newest, stamp);  // caught up to the frontier
    // And the oldest returned entry is within the last-N window, not
    // from before the lap.
    uint64_t oldest = ~0ull;
    for (const DumpEntry &e : d.entries)
        oldest = std::min(oldest, e.stamp);
    EXPECT_GT(oldest, 50u);
}

TEST(StreamReader, EmptyPollOnQuiescentTracer)
{
    BTrace bt(smallConfig());
    DumpCursor cursor;
    ASSERT_TRUE(bt.record(0, 1, 1, 16));
    bt.dumpFrom(cursor, DumpOptions{.closeActive = true});
    const Dump d = bt.dumpFrom(cursor, DumpOptions{.closeActive = true});
    EXPECT_TRUE(d.entries.empty());
}

TEST(StreamReader, StreamUnionMatchesProducedSuffix)
{
    // Poll frequently enough that nothing is overwritten between
    // polls: the union of all polls must be every produced stamp.
    BTrace bt(smallConfig());
    DumpCursor cursor;
    std::set<uint64_t> seen;
    uint64_t stamp = 0;
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 20; ++i) {
            const uint64_t s = ++stamp;
            ASSERT_TRUE(bt.record(uint16_t(s % 4), 1, s, 16));
        }
        const Dump d = bt.dumpFrom(cursor, DumpOptions{.closeActive = true});
        for (const DumpEntry &e : d.entries)
            seen.insert(e.stamp);
    }
    EXPECT_EQ(seen.size(), stamp);
    EXPECT_EQ(*seen.begin(), 1u);
    EXPECT_EQ(*seen.rbegin(), stamp);
}

TEST(StreamReader, WorksAcrossResize)
{
    BTraceConfig cfg;
    cfg.blockSize = 4096;
    cfg.numBlocks = 32;
    cfg.activeBlocks = 8;
    cfg.maxBlocks = 128;
    cfg.cores = 2;
    BTrace bt(cfg);
    DumpCursor cursor;
    uint64_t stamp = 0;
    std::set<uint64_t> seen;
    auto write_and_poll = [&]() {
        for (int i = 0; i < 300; ++i) {
            const uint64_t s = ++stamp;
            ASSERT_TRUE(bt.record(uint16_t(s % 2), 1, s, 64));
        }
        const Dump d = bt.dumpFrom(cursor, DumpOptions{.closeActive = true});
        for (const DumpEntry &e : d.entries) {
            EXPECT_TRUE(e.payloadOk);
            EXPECT_TRUE(seen.insert(e.stamp).second);
        }
    };
    write_and_poll();
    bt.resize(128);
    write_and_poll();
    bt.resize(8);
    write_and_poll();
    EXPECT_GT(seen.size(), 600u);
}

} // namespace
} // namespace btrace
