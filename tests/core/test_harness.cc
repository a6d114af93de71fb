/**
 * @file
 * Concurrency-correctness harness: deterministic adversarial
 * interleavings of the lock-free core, forced through the
 * BTRACE_TEST_YIELD hook points by a sim::PreemptionInjector, each
 * scenario validated by the BTraceAuditor's accounting invariants.
 *
 * Unlike tests/core/test_concurrent.cc (uncontrolled OS scheduling),
 * every scenario here *asserts* that its target race path fired:
 * stale allocations, lost Confirmed locks, lost core-local installs,
 * block skips, and abandoned speculative reads are driven to nonzero
 * counters by construction, not by probability.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "core/auditor.h"
#include "core/btrace.h"
#include "sim/schedule.h"

#include "inspector.h"

namespace btrace {
namespace {

using hooks::YieldPoint;

BTraceConfig
tinyConfig(unsigned cores, std::size_t active, std::size_t blocks,
           std::size_t block_size = 256)
{
    BTraceConfig cfg;
    cfg.blockSize = block_size;
    cfg.numBlocks = blocks;
    cfg.activeBlocks = active;
    cfg.cores = cores;
    return cfg;
}

void
expectAuditClean(BTrace &bt)
{
    const AuditReport rep = BTraceAuditor(bt).audit();
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

void
expectDumpIntegrity(const Dump &d, uint64_t max_stamp)
{
    std::set<uint64_t> stamps;
    for (const DumpEntry &e : d.entries) {
        EXPECT_GE(e.stamp, 1u);
        EXPECT_LE(e.stamp, max_stamp);
        EXPECT_TRUE(e.payloadOk) << "torn entry at stamp " << e.stamp;
        EXPECT_TRUE(stamps.insert(e.stamp).second)
            << "duplicate stamp " << e.stamp;
    }
}

#if defined(BTRACE_ENABLE_TEST_HOOKS)

// A producer preempted between its core-local read and the Allocated
// fetch_add must land in the newer round as a *stale* reservation and
// repay it with a confirmed dummy (§3.2, DESIGN.md §3).
TEST(Harness, StaleAllocationForced)
{
    BTrace bt(tinyConfig(2, 2, 4));
    BTraceInspector insp(bt);

    ASSERT_TRUE(bt.record(0, 1, 1, 40));
    const std::size_t m0 = insp.coreWord(0).pos % insp.activeBlocks();
    const uint32_t r0 = insp.confirmed(m0).rnd;

    PreemptionInjector inj;
    inj.armPark(YieldPoint::ReservePreClaim);
    std::thread t1([&] { EXPECT_TRUE(bt.record(0, 1, 2, 40)); });
    ASSERT_TRUE(inj.awaitParked(YieldPoint::ReservePreClaim));

    // Steal core 0's lagging block: drive core 1 around the window
    // until a wrap-around advancement closes and re-locks metadata m0.
    uint64_t stamp = 100;
    for (int i = 0; i < 100000 && insp.confirmed(m0).rnd == r0; ++i)
        ASSERT_TRUE(bt.record(1, 2, stamp++, 40));
    ASSERT_NE(insp.confirmed(m0).rnd, r0);

    inj.release(YieldPoint::ReservePreClaim);
    t1.join();

    EXPECT_GE(bt.countersSnapshot().staleAllocs, 1u);
    EXPECT_GE(bt.countersSnapshot().dummyBytes, 1u);
    expectAuditClean(bt);
    expectDumpIntegrity(bt.dump(), stamp);
}

// Two advancements racing for the same metadata block: the earlier
// candidate parks right before its Confirmed lock CAS, a later
// candidate locks first, and the loser must retry, not double-lock.
TEST(Harness, LockRaceForced)
{
    BTrace bt(tinyConfig(2, 2, 4));
    BTraceInspector insp(bt);

    PreemptionInjector inj;
    inj.armPark(YieldPoint::AdvancePreLock);
    std::thread t1([&] { EXPECT_TRUE(bt.record(0, 1, 1, 40)); });
    ASSERT_TRUE(inj.awaitParked(YieldPoint::AdvancePreLock));

    // t1 holds candidate position 2 (metadata 0, round 1). Drive core
    // 1 until its wrap-around advancement locks metadata 0 for a later
    // round while t1 is still parked.
    uint64_t stamp = 100;
    for (int i = 0; i < 100000 && insp.confirmed(0).rnd == 0; ++i)
        ASSERT_TRUE(bt.record(1, 2, stamp++, 40));
    ASSERT_GT(insp.confirmed(0).rnd, 0u);

    inj.release(YieldPoint::AdvancePreLock);
    t1.join();

    EXPECT_GE(bt.countersSnapshot().lockRaces, 1u);
    expectAuditClean(bt);
    expectDumpIntegrity(bt.dump(), stamp);
}

// Two threads of one core advancing concurrently: the loser of the
// core-local install CAS must close its freshly locked block and use
// the winner's, leaking nothing.
TEST(Harness, CoreRaceForced)
{
    BTrace bt(tinyConfig(1, 2, 4));

    // Fill the core's block so the next record must advance
    // (16 header + 3 x 64 = 208; a fourth 64-byte entry won't fit).
    for (uint64_t s = 1; s <= 3; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 40));

    PreemptionInjector inj;
    inj.armPark(YieldPoint::AdvancePreInstall);
    std::thread t1([&] { EXPECT_TRUE(bt.record(0, 1, 4, 40)); });
    ASSERT_TRUE(inj.awaitParked(YieldPoint::AdvancePreInstall));

    // t1 locked and initialized a block but has not installed it.
    // A second thread of the same core advances and installs first.
    std::thread t2([&] { EXPECT_TRUE(bt.record(0, 2, 5, 40)); });
    t2.join();

    inj.release(YieldPoint::AdvancePreInstall);
    t1.join();

    EXPECT_GE(bt.countersSnapshot().coreRaces, 1u);
    EXPECT_GE(bt.countersSnapshot().closes, 1u);
    expectAuditClean(bt);
    expectDumpIntegrity(bt.dump(), 5);
}

// A consumer preempted between its speculative copy and the
// re-validation must abandon the block when a writer touched it.
TEST(Harness, AbandonedReadForced)
{
    BTrace bt(tinyConfig(1, 2, 4));
    ASSERT_TRUE(bt.record(0, 1, 1, 16));

    PreemptionInjector inj;
    inj.armPark(YieldPoint::ReadPostCopy);
    Dump d;
    std::thread reader([&] { d = bt.dump(); });
    ASSERT_TRUE(inj.awaitParked(YieldPoint::ReadPostCopy));

    // Mutate the copied block: one more confirmed entry changes the
    // metadata the reader validated its copy against.
    ASSERT_TRUE(bt.record(0, 1, 2, 16));

    inj.release(YieldPoint::ReadPostCopy);
    reader.join();

    EXPECT_EQ(d.abandonedBlocks, 1u);
    EXPECT_TRUE(d.entries.empty());  // the only written block aborted

    const Dump d2 = bt.dump();
    EXPECT_EQ(d2.entries.size(), 2u);
    expectAuditClean(bt);
}

// The reader parses each block in place, straight into the dump, and
// re-validates afterwards. A block invalidated after its parse must
// take back exactly the entries that parse appended; the block read
// before it keeps its own.
TEST(Harness, InvalidatedBlockDropsOnlyItsOwnParsedEntries)
{
    BTrace bt(tinyConfig(2, 4, 8));
    BTraceInspector insp(bt);
    ASSERT_TRUE(bt.record(0, 1, 1, 16));
    ASSERT_TRUE(bt.record(0, 1, 2, 16));
    ASSERT_TRUE(bt.record(1, 2, 3, 16));
    ASSERT_LT(insp.coreWord(0).pos, insp.coreWord(1).pos);

    PreemptionInjector inj;
    inj.armPark(YieldPoint::ReadPostCopy);
    Dump d;
    std::thread reader([&] { d = bt.dump(); });
    ASSERT_TRUE(inj.awaitParked(YieldPoint::ReadPostCopy));

    // Core 0's block is parsed; let it validate and trap core 1's.
    inj.armPark(YieldPoint::ReadPostCopy);
    inj.release(YieldPoint::ReadPostCopy);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (inj.hits(YieldPoint::ReadPostCopy) < 2 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    ASSERT_TRUE(inj.awaitParked(YieldPoint::ReadPostCopy));

    // Invalidate the second block after its parse.
    ASSERT_TRUE(bt.record(1, 2, 4, 16));

    inj.release(YieldPoint::ReadPostCopy);
    reader.join();

    EXPECT_EQ(d.abandonedBlocks, 1u);
    std::vector<uint64_t> stamps;
    for (const DumpEntry &e : d.entries)
        stamps.push_back(e.stamp);
    EXPECT_EQ(stamps, (std::vector<uint64_t>{1, 2}));

    EXPECT_EQ(bt.dump().entries.size(), 4u);
    expectAuditClean(bt);
}

// Wrap/lap boundary of the incremental read: a block overwritten by a
// full producer lap while the dump is parked between its speculative
// copy and the re-validation is permanently lost data. It must be
// charged to overwrittenPositions — the same bucket as positions lost
// before the read started — and never parsed into torn entries. It
// used to be misfiled as a transient abandonedBlocks.
TEST(Harness, LapDuringDumpSinceCountsOverwrittenNotAbandoned)
{
    BTrace bt(tinyConfig(1, 2, 4));
    BTraceInspector insp(bt);

    // Two full blocks plus the start of a third, so the incremental
    // read has complete blocks to copy before it hits the active one.
    for (uint64_t s = 1; s <= 7; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 40));

    PreemptionInjector inj;
    inj.armPark(YieldPoint::ReadPostCopy);
    DumpCursor cursor;
    Dump d;
    std::thread reader([&] { d = bt.dumpFrom(cursor); });
    ASSERT_TRUE(inj.awaitParked(YieldPoint::ReadPostCopy));

    // Lap the parked reader: with N = 4 data blocks, advancing the
    // head a full buffer past the copied position re-locks and
    // overwrites its physical block.
    uint64_t s = 8;
    while (insp.globalWord().pos < 10)
        ASSERT_TRUE(bt.record(0, 1, s++, 40));

    inj.release(YieldPoint::ReadPostCopy);
    reader.join();

    EXPECT_GE(d.overwrittenPositions, 1u);  // the lapped copy landed here
    EXPECT_EQ(d.abandonedBlocks, 0u);
    expectDumpIntegrity(d, s - 1);  // no torn or duplicate entries
    EXPECT_GT(cursor.position, 0u);
    expectAuditClean(bt);
}

// A streaming pass parsing an open block's confirmed entries while a
// writer publishes another one into the block must drop the parse and
// charge nothing: the next pass returns the block's entries, the new
// one included, each exactly once.
TEST(Harness, PrefixReadRacingAConfirmIsRetried)
{
    BTrace bt(tinyConfig(1, 2, 8));
    for (uint64_t s = 1; s <= 3; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));

    PreemptionInjector inj;
    inj.armPark(YieldPoint::ReadPostCopy);
    DumpCursor cursor;
    Dump first;
    std::thread reader([&] { bt.dumpFrom(cursor, DumpOptions{}, first); });
    const bool parked = inj.awaitParked(YieldPoint::ReadPostCopy,
                                        std::chrono::milliseconds(2000));
    if (parked)
        EXPECT_TRUE(bt.record(0, 1, 4, 16));  // confirms mid-read
    else
        inj.disarm(YieldPoint::ReadPostCopy);
    inj.release(YieldPoint::ReadPostCopy);
    reader.join();
    ASSERT_TRUE(parked) << "the pass never parsed the open block";

    EXPECT_TRUE(first.entries.empty());
    EXPECT_EQ(first.abandonedBlocks, 0u);
    EXPECT_EQ(first.unreadableBlocks, 0u);
    EXPECT_EQ(first.overwrittenPositions, 0u);

    const Dump second = bt.dumpFrom(cursor);
    std::vector<uint64_t> stamps;
    for (const DumpEntry &e : second.entries)
        stamps.push_back(e.stamp);
    EXPECT_EQ(stamps, (std::vector<uint64_t>{1, 2, 3, 4}));
    EXPECT_EQ(second.abandonedBlocks, 0u);
    expectDumpIntegrity(second, 4);
    expectAuditClean(bt);
}

// A close-on-read pass that meets a block an advancer has locked but
// not yet initialized (no header, Allocated still in the old round)
// must come back to it: giving it up as an empty position drops the
// entries written into the block once the advancer finishes.
TEST(Harness, CloseOnReadWaitsForABlockStillBeingOpened)
{
    BTrace bt(tinyConfig(2, 8, 32));
    ASSERT_TRUE(bt.record(0, 1, 1, 16));

    PreemptionInjector inj;
    inj.armPark(YieldPoint::AdvancePreReset);
    std::thread writer([&] { ASSERT_TRUE(bt.record(1, 2, 2, 16)); });
    ASSERT_TRUE(inj.awaitParked(YieldPoint::AdvancePreReset));

    DumpCursor cursor;
    const DumpOptions opts{.closeActive = true};
    const Dump first = bt.dumpFrom(cursor, opts);

    inj.release(YieldPoint::AdvancePreReset);
    writer.join();
    const Dump second = bt.dumpFrom(cursor, opts);

    std::set<uint64_t> stamps;
    for (const Dump *d : {&first, &second})
        for (const DumpEntry &e : d->entries)
            stamps.insert(e.stamp);
    EXPECT_EQ(stamps, (std::set<uint64_t>{1, 2}));
    expectAuditClean(bt);
}

#endif // BTRACE_ENABLE_TEST_HOOKS

// A preempted writer holding an unconfirmed reservation keeps its
// block incomplete; wrap-around advancement must sacrifice the
// candidate with a SKP marker (§3.4) instead of blocking or
// re-locking.
TEST(Harness, SkipForcedByPreemptedWriter)
{
    BTrace bt(tinyConfig(2, 2, 4));

    ASSERT_TRUE(bt.record(0, 1, 1, 40));
    WriteTicket held = bt.allocate(0, 1, 40);
    ASSERT_EQ(held.status, AllocStatus::Ok);  // preempted mid-write

    uint64_t stamp = 100;
    for (int i = 0;
         i < 100000 && bt.countersSnapshot().skips == 0; ++i)
        ASSERT_TRUE(bt.record(1, 2, stamp++, 40));
    EXPECT_GE(bt.countersSnapshot().skips, 1u);

    writeNormal(held.dst, 2, 0, 1, 0, 40);
    bt.confirm(held);

    expectAuditClean(bt);
    expectDumpIntegrity(bt.dump(), stamp);
}

// Operation within a few rounds of the 32-bit wrap boundary stays
// correct: rounds compare, blocks tile, dumps parse.
TEST(Harness, NearWrapRoundsOperate)
{
    BTrace bt(tinyConfig(1, 8, 8));
    BTraceInspector insp(bt);

    const std::size_t A = insp.activeBlocks();
    const uint32_t R = 0xffffffffu - 64;
    for (std::size_t m = 0; m < A; ++m)
        insp.seedMetadata(m, RndPos{R, 256}, RndPos{R, 256});
    insp.seedGlobal(RatioPos{1, false, (uint64_t(R) + 1) * A});
    insp.seedCoreWord(0, RatioPos{1, false, 0});

    uint64_t stamp = 0;
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(bt.record(0, 1, ++stamp, 40));

    // Every metadata block must have been re-locked past the seeded
    // round by now (100 records span > 2x8 block advancements).
    for (std::size_t m = 0; m < A; ++m)
        ASSERT_GT(insp.confirmed(m).rnd, R);

    expectAuditClean(bt);
    expectDumpIntegrity(bt.dump(), stamp);
}

using HarnessDeath = ::testing::Test;

// Crossing 2^32 rounds must fail loudly instead of aliasing rounds
// and silently corrupting round comparisons.
TEST(HarnessDeath, RoundOverflowPanics)
{
    BTrace bt(tinyConfig(1, 8, 8));
    BTraceInspector insp(bt);

    const std::size_t A = insp.activeBlocks();
    const uint32_t R = 0xffffffffu - 2;
    for (std::size_t m = 0; m < A; ++m)
        insp.seedMetadata(m, RndPos{R, 256}, RndPos{R, 256});
    insp.seedGlobal(RatioPos{1, false, (uint64_t(R) + 1) * A});
    insp.seedCoreWord(0, RatioPos{1, false, 0});

    EXPECT_DEATH(
        {
            for (uint64_t s = 1; s <= 1000; ++s)
                bt.record(0, 1, s, 40);
        },
        "round overflow");
}

// Multi-producer x consumer x resizer stress with scheduler churn
// concentrated on the critical windows; the auditor's accounting
// invariants must hold after quiesce, and no dump entry may be
// duplicated or torn across the grow and shrink.
TEST(Harness, AuditorStressWithResizes)
{
    BTraceConfig cfg;
    cfg.blockSize = 1024;
    cfg.numBlocks = 64;
    cfg.activeBlocks = 16;
    cfg.maxBlocks = 128;
    cfg.cores = 4;
    BTrace bt(cfg);

    PreemptionInjector inj;
    inj.setRandomYield(0xB7FACEull, 5);

    std::atomic<uint64_t> stamp{0};
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> lost{0};

    std::vector<std::thread> producers;
    for (unsigned c = 0; c < 4; ++c) {
        producers.emplace_back([&, c] {
            for (int i = 0; i < 3000; ++i) {
                const uint64_t s =
                    stamp.fetch_add(1, std::memory_order_relaxed) + 1;
                EXPECT_TRUE(bt.record(uint16_t(c), c, s, 48));
            }
        });
    }
    std::thread consumer([&] {
        DumpCursor cursor;
        while (!stop.load(std::memory_order_acquire)) {
            const Dump d = bt.dumpFrom(cursor);
            lost.fetch_add(d.overwrittenPositions,
                           std::memory_order_relaxed);
            for (const DumpEntry &e : d.entries)
                EXPECT_TRUE(e.payloadOk)
                    << "torn incremental entry at stamp " << e.stamp;
            std::this_thread::yield();
        }
    });

    // Mid-run grow and shrink (ratios 4 -> 8 -> 2 -> 6; never
    // revisiting a ratio keeps reclaimed old-geometry rounds
    // distinguishable for the auditor).
    bt.resize(128);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    bt.resize(32);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    bt.resize(96);

    for (auto &p : producers)
        p.join();
    stop.store(true, std::memory_order_release);
    consumer.join();

    EXPECT_EQ(bt.countersSnapshot().resizes, 3u);
    expectAuditClean(bt);
    expectDumpIntegrity(bt.dump(), stamp.load());
}

// Same stress shape without resizes, heavier oversubscription: three
// threads per core id so core-local install races and stale
// reservations occur naturally under the injected yields.
TEST(Harness, AuditorStressOversubscribed)
{
    BTrace bt(tinyConfig(2, 8, 32, 512));

    PreemptionInjector inj;
    inj.setRandomYield(0x5EEDull, 3);

    std::atomic<uint64_t> stamp{0};
    std::vector<std::thread> workers;
    for (unsigned c = 0; c < 2; ++c) {
        for (int k = 0; k < 3; ++k) {
            workers.emplace_back([&, c] {
                for (int i = 0; i < 2000; ++i) {
                    const uint64_t s =
                        stamp.fetch_add(1, std::memory_order_relaxed) +
                        1;
                    EXPECT_TRUE(bt.record(uint16_t(c), c, s, 32));
                }
            });
        }
    }
    for (auto &w : workers)
        w.join();

    expectAuditClean(bt);
    expectDumpIntegrity(bt.dump(), stamp.load());
}

} // namespace
} // namespace btrace
