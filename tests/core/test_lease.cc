/**
 * @file
 * Unit and interleaving tests for thread-local block leasing (§4.1
 * amortized): span grant and bump-pointer serving, bulk confirmation
 * at close, revocation accounting for abandoned leases, and the
 * skip/sacrifice semantics of blocks held across a preemption — all
 * validated with BTraceAuditor after each scenario.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/auditor.h"
#include "core/btrace.h"
#include "inspector.h"
#include "sim/schedule.h"

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

BTraceConfig
largeConfig()
{
    return smallConfig(1 << 16, 64, 16, 4);
}

void
expectCleanAudit(BTrace &bt)
{
    const AuditReport rep = BTraceAuditor(bt).audit();
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(Lease, GrantServeConfirmClose)
{
    BTrace bt(largeConfig());
    Lease l = bt.lease(0, 7, 16, 8);
    ASSERT_TRUE(l.ok());
    EXPECT_TRUE(l.batched());
    EXPECT_EQ(l.core(), 0);
    EXPECT_EQ(l.thread(), 7u);
    EXPECT_EQ(bt.countersSnapshot().leases, 1u);
    EXPECT_GT(bt.countersSnapshot().leasedOutstanding, 0u);

    const uint8_t *prev = nullptr;
    for (int i = 0; i < 8; ++i) {
        WriteTicket t = l.allocate(16);
        ASSERT_TRUE(t.ok());
        EXPECT_TRUE(t.leased);
        if (prev != nullptr)
            EXPECT_EQ(t.dst, prev + EntryLayout::normalSize(16));
        prev = t.dst;
        writeNormal(t.dst, uint64_t(i) + 1, 0, 7, 0, 16);
        l.confirm(t);
    }
    EXPECT_EQ(l.entries(), 8u);
    l.close();
    EXPECT_TRUE(l.closed());
    EXPECT_EQ(bt.countersSnapshot().leasedOutstanding, 0u);
    EXPECT_EQ(bt.countersSnapshot().leaseEntries, 8u);

    const Dump d = bt.dump();
    EXPECT_EQ(d.entries.size(), 8u);
    expectCleanAudit(bt);
}

TEST(Lease, SpanNeverExceedsBlockAndRenewalWorks)
{
    // cap 240 usable bytes: a lease of 1000 entries degenerates to
    // whatever the current block holds; exhaustion means renew.
    BTrace bt(smallConfig());
    Lease l = bt.lease(0, 1, 16, 1000);
    ASSERT_TRUE(l.ok());
    EXPECT_LE(l.remainingBytes(), 256u - EntryLayout::blockHeaderBytes);

    uint64_t stamp = 0;
    int renewals = 0;
    for (int i = 0; i < 100; ++i) {
        WriteTicket t = l.allocate(16);
        if (!t.ok()) {
            l.close();
            l = bt.lease(0, 1, 16, 1000);
            ASSERT_TRUE(l.ok()) << "renewal " << renewals;
            ++renewals;
            t = l.allocate(16);
            ASSERT_TRUE(t.ok());
        }
        writeNormal(t.dst, ++stamp, 0, 1, 0, 16);
        l.confirm(t);
    }
    l.close();
    EXPECT_GT(renewals, 0);
    expectCleanAudit(bt);
}

TEST(Lease, SharedRmwsAmortizedAcrossBatch)
{
    // The acceptance criterion made executable: N events through
    // leases of 50 must issue far fewer shared RMWs than N events
    // through the single-entry path (2 FAAs each).
    constexpr int events = 1000;

    BTrace single(largeConfig());
    for (int i = 0; i < events; ++i)
        ASSERT_TRUE(single.record(0, 1, uint64_t(i) + 1, 48));
    const uint64_t rmwSingle = single.countersSnapshot().sharedRmws;

    BTrace leased(largeConfig());
    uint64_t stamp = 0;
    Lease l;
    for (int i = 0; i < events; ++i) {
        WriteTicket t = l.closed() ? WriteTicket{} : l.allocate(48);
        if (!t.ok()) {
            l.close();
            l = leased.lease(0, 1, 48, 50);
            ASSERT_TRUE(l.ok());
            t = l.allocate(48);
            ASSERT_TRUE(t.ok());
        }
        writeNormal(t.dst, ++stamp, 0, 1, 0, 48);
        l.confirm(t);
    }
    l.close();
    const uint64_t rmwLeased = leased.countersSnapshot().sharedRmws;

    EXPECT_EQ(leased.countersSnapshot().leaseEntries, uint64_t(events));
    // ~2/event vs ~2/50-event batch; demand at least a 5x reduction
    // to leave headroom for advancement traffic on both sides.
    EXPECT_LT(rmwLeased * 5, rmwSingle)
        << "single=" << rmwSingle << " leased=" << rmwLeased;
    expectCleanAudit(single);
    expectCleanAudit(leased);
}

TEST(Lease, AbandonedTicketIsDummyFilledNotLost)
{
    BTrace bt(largeConfig());
    Lease l = bt.lease(0, 1, 16, 4);
    ASSERT_TRUE(l.ok());
    WriteTicket keep = l.allocate(16);
    WriteTicket drop = l.allocate(16);
    ASSERT_TRUE(keep.ok());
    ASSERT_TRUE(drop.ok());
    writeNormal(keep.dst, 1, 0, 1, 0, 16);
    l.confirm(keep);
    l.abandon(drop);  // dummy-filled: no deficit
    l.close();
    EXPECT_EQ(bt.countersSnapshot().leasedOutstanding, 0u);

    const Dump d = bt.dump();
    EXPECT_EQ(d.entries.size(), 1u);
    expectCleanAudit(bt);
}

TEST(Lease, UnconfirmedSlotLeavesReconciledDeficit)
{
    // A served-but-never-confirmed slot is the revocation case: close
    // publishes around the hole, the block never completes, and the
    // auditor must reconcile the deficit against leasedOutstanding.
    BTrace bt(largeConfig());
    Lease l = bt.lease(0, 1, 16, 4);
    ASSERT_TRUE(l.ok());
    WriteTicket a = l.allocate(16);
    WriteTicket lost = l.allocate(16);
    WriteTicket b = l.allocate(16);
    ASSERT_TRUE(a.ok() && lost.ok() && b.ok());
    writeNormal(a.dst, 1, 0, 1, 0, 16);
    writeNormal(b.dst, 2, 0, 1, 0, 16);
    l.confirm(a);
    l.confirm(b);
    l.close();  // `lost` never confirmed nor abandoned

    const auto hole = uint64_t(EntryLayout::normalSize(16));
    EXPECT_EQ(bt.countersSnapshot().leasedOutstanding, hole);
    expectCleanAudit(bt);
}

TEST(Lease, LostConfirmWithoutLeaseStillFailsAudit)
{
    // The deficit tolerance must not weaken the invariant for the
    // single-entry path: an unconfirmed ordinary write has no lease
    // to blame and stays a violation.
    BTrace bt(largeConfig());
    WriteTicket t = bt.allocate(0, 1, 16);
    ASSERT_TRUE(t.ok());
    writeNormal(t.dst, 1, 0, 1, 0, 16);
    // no confirm
    const AuditReport rep = BTraceAuditor(bt).audit();
    EXPECT_FALSE(rep.ok());
}

TEST(Lease, WholeLeaseDroppedWithoutServing)
{
    BTrace bt(largeConfig());
    {
        Lease l = bt.lease(0, 1, 16, 16);
        ASSERT_TRUE(l.ok());
        // Destructor closes: the whole span returns as one dummy.
    }
    EXPECT_EQ(bt.countersSnapshot().leasedOutstanding, 0u);
    EXPECT_EQ(bt.dump().entries.size(), 0u);
    expectCleanAudit(bt);
}

TEST(Lease, StaleLeaseSurvivesCoreAdvancement)
{
    // Other writers fill the rest of the block and advance the core
    // while the lease is open; its claimed span stays private and
    // valid, and the block completes once the lease publishes.
    BTrace bt(smallConfig());
    Lease l = bt.lease(0, 1, 16, 2);
    ASSERT_TRUE(l.ok());

    // Fill the remainder of core 0's block and push it to a new one.
    const uint64_t advances = bt.countersSnapshot().advances;
    uint64_t stamp = 100;
    while (bt.countersSnapshot().advances == advances)
        ASSERT_TRUE(bt.record(0, 2, ++stamp, 16));

    // The lease still serves from the old block.
    WriteTicket t = l.allocate(16);
    ASSERT_TRUE(t.ok());
    writeNormal(t.dst, 1, 0, 1, 0, 16);
    l.confirm(t);
    l.close();
    EXPECT_EQ(bt.countersSnapshot().leasedOutstanding, 0u);
    expectCleanAudit(bt);
}

TEST(Lease, MigrationClosesAndReleasesOnNewCore)
{
    BTrace bt(smallConfig());
    Lease l = bt.lease(0, 1, 16, 2);
    ASSERT_TRUE(l.ok());
    WriteTicket t = l.allocate(16);
    ASSERT_TRUE(t.ok());
    writeNormal(t.dst, 1, 0, 1, 0, 16);
    l.confirm(t);

    // Migrate to core 1 mid-lease: close, re-lease there.
    l.close();
    Lease l2 = bt.lease(1, 1, 16, 2);
    ASSERT_TRUE(l2.ok());
    EXPECT_EQ(l2.core(), 1);
    WriteTicket t2 = l2.allocate(16);
    ASSERT_TRUE(t2.ok());
    writeNormal(t2.dst, 2, 1, 1, 0, 16);
    l2.confirm(t2);
    l2.close();

    EXPECT_EQ(bt.countersSnapshot().leases, 2u);
    EXPECT_EQ(bt.dump().entries.size(), 2u);
    expectCleanAudit(bt);
}

TEST(Lease, BlockClosedAndSkippedUnderOpenLease)
{
    // Wrap the buffer while a lease is open: advancers close the
    // unleased tail of the held block but can never steal the leased
    // span, so the block is sacrificed (§3.4) until the lease
    // publishes. Late writes through the lease stay memory-safe.
    BTrace bt(smallConfig());
    Lease l = bt.lease(0, 1, 16, 2);
    ASSERT_TRUE(l.ok());

    uint64_t stamp = 1000;
    int spins = 0;
    while (bt.countersSnapshot().skips == 0 && spins < 200000) {
        const uint16_t core = uint16_t(1 + (spins % 3));
        ASSERT_TRUE(bt.record(core, 9, ++stamp, 16));
        ++spins;
    }
    EXPECT_GT(bt.countersSnapshot().skips, 0u);

    WriteTicket t = l.allocate(16);
    ASSERT_TRUE(t.ok());
    writeNormal(t.dst, 1, 0, 1, 0, 16);
    l.confirm(t);
    l.close();
    EXPECT_EQ(bt.countersSnapshot().leasedOutstanding, 0u);
    expectCleanAudit(bt);
}

/** Serve @p n confirmed 16-byte-payload entries; returns the last one's end. */
const uint8_t *
serve(Lease &l, uint64_t first_stamp, int n)
{
    const uint8_t *end = nullptr;
    for (int i = 0; i < n; ++i) {
        WriteTicket t = l.allocate(16);
        EXPECT_TRUE(t.ok());
        if (!t.ok())
            return end;
        writeNormal(t.dst, first_stamp + uint64_t(i), l.core(),
                    l.thread(), 0, 16);
        l.confirm(t);
        end = t.dst + t.entrySize;
    }
    return end;
}

TEST(LeaseGiveBack, UnusedTailReturnsToItsBlock)
{
    // The lease is still the block's newest reservation at close, so
    // its unused tail goes back to the block instead of into a dummy:
    // the next lease on the core starts right after the served bytes.
    BTrace bt(largeConfig());
    Lease l = bt.lease(0, 1, 16, 8);
    ASSERT_TRUE(l.ok());
    const uint8_t *end = serve(l, 1, 2);
    const BTraceCounters::Snapshot before = bt.countersSnapshot();
    l.close();
    EXPECT_EQ(bt.countersSnapshot().dummyBytes, before.dummyBytes);
    EXPECT_EQ(bt.countersSnapshot().leasedOutstanding, 0u);

    const uint64_t rmws = bt.countersSnapshot().sharedRmws;
    Lease next = bt.lease(0, 1, 16, 8);
    ASSERT_TRUE(next.ok());
    WriteTicket t = next.allocate(16);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.dst, end);
    writeNormal(t.dst, 3, 0, 1, 0, 16);
    next.confirm(t);
    next.close();
    // Claim FAA, give-back CAS, confirm FAA.
    EXPECT_EQ(bt.countersSnapshot().sharedRmws - rmws, 3u);
    EXPECT_EQ(bt.countersSnapshot().dummyBytes, before.dummyBytes);
    EXPECT_EQ(bt.dump().entries.size(), 3u);
    expectCleanAudit(bt);
}

TEST(LeaseGiveBack, LaterReservationForcesDummyFill)
{
    // A single-entry reservation on the same core lands after the
    // lease's span: the give-back must fail (no doomed CAS issued),
    // the tail is dummy-filled, and the later entry survives.
    BTrace bt(largeConfig());
    Lease l = bt.lease(0, 1, 16, 8);
    ASSERT_TRUE(l.ok());
    serve(l, 1, 2);
    WriteTicket later = bt.allocate(0, 2, 16);
    ASSERT_TRUE(later.ok());
    writeNormal(later.dst, 100, 0, 2, 0, 16);
    bt.confirm(later);

    const BTraceCounters::Snapshot before = bt.countersSnapshot();
    l.close();
    const BTraceCounters::Snapshot d = bt.countersSnapshot() - before;
    EXPECT_EQ(d.dummyBytes, 6 * EntryLayout::normalSize(16));
    EXPECT_EQ(d.sharedRmws, 1u);  // the confirm FAA only
    EXPECT_EQ(bt.countersSnapshot().leasedOutstanding, 0u);

    const Dump dump = bt.dump();
    EXPECT_EQ(dump.entries.size(), 3u);
    bool sawLater = false;
    for (const DumpEntry &e : dump.entries)
        sawLater = sawLater || e.stamp == 100;
    EXPECT_TRUE(sawLater);
    expectCleanAudit(bt);
}

TEST(LeaseGiveBack, TailOfAnAbandonedBlockIsClosed)
{
    // The lease's claim reaches the block end, so the block looks
    // exhausted and another writer moves the core to a fresh block.
    // Handing the tail back would then leave the old block open with
    // no writer coming back for it; the close must finish it instead.
    BTrace bt(smallConfig());
    BTraceInspector insp(bt);
    Lease l = bt.lease(0, 1, 16, 1000);  // the whole block
    ASSERT_TRUE(l.ok());
    serve(l, 1, 2);
    const uint64_t pos = insp.coreWord(0).pos;
    ASSERT_TRUE(bt.record(0, 2, 100, 16));  // advances core 0
    ASSERT_NE(insp.coreWord(0).pos, pos);

    l.close();
    const std::size_t m = pos % insp.activeBlocks();
    EXPECT_EQ(insp.confirmed(m).pos, 256u);  // complete, not open
    EXPECT_EQ(bt.countersSnapshot().leasedOutstanding, 0u);
    EXPECT_EQ(bt.dump().entries.size(), 3u);
    expectCleanAudit(bt);
}

TEST(LeaseGiveBack, EntryTooBigForTheSpanStillProgresses)
{
    // The lease lands on a block tail that fits its hint but not the
    // entry the caller then writes. A span that served nothing is not
    // handed back, so the renewal moves on instead of being granted
    // the same unusable tail forever.
    BTrace bt(smallConfig());
    for (uint64_t s = 1; s <= 4; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 16));  // 80 bytes of 240 left
    int renewals = 0;
    WriteTicket t;
    for (; renewals < 8; ++renewals) {
        Lease l = bt.lease(0, 1, 16, 1000);
        ASSERT_TRUE(l.ok());
        t = l.allocate(100);  // 128 bytes: more than the tail
        if (t.ok()) {
            writeNormal(t.dst, 5, 0, 1, 0, 100);
            l.confirm(t);
            break;
        }
    }
    EXPECT_TRUE(t.ok()) << "no progress after " << renewals
                        << " renewals";
    EXPECT_EQ(bt.dump().entries.size(), 5u);
    expectCleanAudit(bt);
}

/**
 * §2.2 effectivity of a dump of stamps 1..@p newest: bytes of the
 * newest contiguous run over the buffer capacity.
 */
double
effectivity(BTrace &bt, uint64_t newest)
{
    std::unordered_map<uint64_t, uint32_t> size;
    for (const DumpEntry &e : bt.dump().entries)
        size[e.stamp] = e.size;
    double bytes = 0.0;
    for (uint64_t s = newest; s >= 1 && size.count(s) != 0; --s)
        bytes += size[s];
    return bytes / double(bt.capacityBytes());
}

TEST(LeaseGiveBack, OversizedLeasesKeepSingleEntryEffectivity)
{
    // Leases sized for 4x the real payload used to dummy-fill the
    // unused ~60% of every span; with the tails handed back, the ring
    // holds as much of the stream as record() fills it with.
    constexpr uint64_t kEvents = 24000;
    constexpr uint32_t kPayload = 32, kBurst = 8;
    const BTraceConfig cfg = smallConfig(4096, 64, 16, 4);

    BTrace single(cfg);
    for (uint64_t s = 1; s <= kEvents; ++s)
        ASSERT_TRUE(single.record(0, 1, s, kPayload));

    BTrace leased(cfg);
    uint64_t s = 1;
    while (s <= kEvents) {
        Lease l = leased.lease(0, 1, 4 * kPayload, kBurst);
        ASSERT_TRUE(l.ok());
        for (uint32_t k = 0; k < kBurst && s <= kEvents; ++k) {
            WriteTicket t = l.allocate(kPayload);
            if (!t.ok())
                break;  // span ran out at the block end: renew
            writeNormal(t.dst, s++, 0, 1, 0, kPayload);
            l.confirm(t);
        }
    }

    const double eSingle = effectivity(single, kEvents);
    const double eLeased = effectivity(leased, kEvents);
    EXPECT_GT(eSingle, 0.9);
    EXPECT_NEAR(eLeased, eSingle, 0.03)
        << "single=" << eSingle << " leased=" << eLeased;
    expectCleanAudit(single);
    expectCleanAudit(leased);
}

#if defined(BTRACE_ENABLE_TEST_HOOKS) && BTRACE_ENABLE_TEST_HOOKS

TEST(LeaseInterleaving, OwnerParkedInsideCloseWhileBlockSacrificed)
{
    // The thread is descheduled inside close() before returning the
    // remainder and publishing the bulk confirm — the widest
    // revocation window. Concurrent writers wrap the buffer, close the
    // held block's tail and sacrifice it; the late close must fall
    // back to a dummy fill, and its confirm must still land in the
    // metadata and complete the round.
    PreemptionInjector inj;
    BTrace bt(smallConfig());

    inj.armPark(hooks::YieldPoint::LeasePreCloseConfirm);
    std::thread owner([&]() {
        Lease l = bt.lease(0, 1, 16, 2);
        ASSERT_TRUE(l.ok());
        WriteTicket t = l.allocate(16);
        ASSERT_TRUE(t.ok());
        writeNormal(t.dst, 1, 0, 1, 0, 16);
        l.confirm(t);
        l.close();  // parks at LeasePreCloseConfirm
    });
    ASSERT_TRUE(
        inj.awaitParked(hooks::YieldPoint::LeasePreCloseConfirm));

    uint64_t stamp = 1000;
    int spins = 0;
    while (bt.countersSnapshot().skips == 0 && spins < 200000) {
        const uint16_t core = uint16_t(1 + (spins % 3));
        ASSERT_TRUE(bt.record(core, 9, ++stamp, 16));
        ++spins;
    }
    EXPECT_GT(bt.countersSnapshot().skips, 0u);

    inj.release(hooks::YieldPoint::LeasePreCloseConfirm);
    owner.join();
    EXPECT_EQ(bt.countersSnapshot().leasedOutstanding, 0u);
    expectCleanAudit(bt);
}

TEST(LeaseInterleaving, ClaimRacesRoundTurnover)
{
    // Park the leasing thread between its core-local read and the
    // span fetch_add, wrap the buffer so the metadata is re-locked
    // for a newer round, then let the stale claim land: it must be
    // dummy-filled into the new round, never granted.
    PreemptionInjector inj;
    BTrace bt(smallConfig());

    // Prime core 0 so the lease path starts from a live block.
    ASSERT_TRUE(bt.record(0, 1, 1, 16));

    inj.armPark(hooks::YieldPoint::LeasePreClaim);
    std::thread leaser([&]() {
        Lease l = bt.lease(0, 1, 16, 2);
        // Granted-after-retry or denied are both legal outcomes; the
        // auditor below decides whether accounting survived.
        if (l.ok()) {
            WriteTicket t = l.allocate(16);
            if (t.ok()) {
                writeNormal(t.dst, 2, 0, 1, 0, 16);
                l.confirm(t);
            }
        }
        l.close();
    });
    ASSERT_TRUE(inj.awaitParked(hooks::YieldPoint::LeasePreClaim));

    // Wrap far enough that core 0's metadata moves to a new round.
    uint64_t stamp = 1000;
    for (int i = 0; i < 4000; ++i)
        ASSERT_TRUE(bt.record(uint16_t(i % 4), 9, ++stamp, 16));

    inj.release(hooks::YieldPoint::LeasePreClaim);
    leaser.join();
    EXPECT_EQ(bt.countersSnapshot().leasedOutstanding, 0u);
    expectCleanAudit(bt);
}

TEST(LeaseInterleaving, AdvanceRacingGiveBackClosesTheTail)
{
    // The other half of the give-back handshake: a writer saw the
    // block exhausted by the lease's claim and is about to move the
    // core on, but the lease closes first and, with the core still on
    // the block, hands its tail back. The writer's install must then
    // close the block it leaves, or the tail stays open forever.
    PreemptionInjector inj;
    BTrace bt(smallConfig());
    BTraceInspector insp(bt);
    Lease l = bt.lease(0, 1, 16, 1000);  // the whole block
    ASSERT_TRUE(l.ok());
    serve(l, 1, 2);
    const uint64_t pos = insp.coreWord(0).pos;
    const std::size_t m = pos % insp.activeBlocks();

    inj.armPark(hooks::YieldPoint::AdvancePreInstall);
    std::thread writer([&]() { ASSERT_TRUE(bt.record(0, 2, 100, 16)); });
    ASSERT_TRUE(inj.awaitParked(hooks::YieldPoint::AdvancePreInstall));

    l.close();
    EXPECT_EQ(insp.coreWord(0).pos, pos);
    EXPECT_LT(insp.confirmed(m).pos, 256u);  // tail handed back

    inj.release(hooks::YieldPoint::AdvancePreInstall);
    writer.join();
    EXPECT_NE(insp.coreWord(0).pos, pos);
    EXPECT_EQ(insp.confirmed(m).pos, 256u);
    EXPECT_EQ(bt.dump().entries.size(), 3u);
    expectCleanAudit(bt);
}

TEST(LeaseStress, ConcurrentLeaseAndSingleWritersUnderRandomYields)
{
    // Mixed traffic with scheduler churn concentrated on the lease
    // yield points; also the TSan workout for the lease path.
    PreemptionInjector inj;
    inj.setRandomYield(42, 4);
    BTrace bt(smallConfig(512, 64, 16, 4));

    constexpr int threadsPerMode = 2;
    constexpr int opsPerThread = 4000;
    // A close-on-read consumer races closeRound against the lease
    // give-back CAS (and its tryAdvance counterpart).
    std::atomic<bool> writing{true};
    std::thread consumer([&]() {
        DumpCursor cursor;
        DumpOptions opts;
        opts.closeActive = true;
        while (writing.load(std::memory_order_acquire)) {
            (void)bt.dumpFrom(cursor, opts);
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> workers;
    for (int w = 0; w < threadsPerMode; ++w) {
        workers.emplace_back([&, w]() {
            const auto core = uint16_t(w);
            const uint32_t tid = 100 + uint32_t(w);
            uint64_t stamp = uint64_t(w + 1) << 32;
            Lease l;
            for (int i = 0; i < opsPerThread; ++i) {
                WriteTicket t =
                    l.closed() ? WriteTicket{} : l.allocate(16);
                if (!t.ok()) {
                    l.close();
                    l = bt.lease(core, tid, 16, 8);
                    if (!l.ok()) {
                        std::this_thread::yield();
                        continue;
                    }
                    t = l.allocate(16);
                    if (!t.ok())
                        continue;
                }
                writeNormal(t.dst, ++stamp, core, tid, 0, 16);
                if (i % 7 == 3)
                    l.abandon(t);
                else
                    l.confirm(t);
            }
            l.close();
        });
    }
    for (int w = 0; w < threadsPerMode; ++w) {
        workers.emplace_back([&, w]() {
            const auto core = uint16_t(2 + w);
            const uint32_t tid = 200 + uint32_t(w);
            uint64_t stamp = uint64_t(w + 5) << 32;
            for (int i = 0; i < opsPerThread; ++i)
                bt.record(core, tid, ++stamp, 16);
        });
    }
    for (std::thread &t : workers)
        t.join();
    writing.store(false, std::memory_order_release);
    consumer.join();

    EXPECT_EQ(bt.countersSnapshot().leasedOutstanding, 0u);
    EXPECT_GT(bt.countersSnapshot().leases, 0u);
    EXPECT_GT(bt.countersSnapshot().leaseEntries, 0u);
    expectCleanAudit(bt);
}

#endif // BTRACE_ENABLE_TEST_HOOKS

} // namespace
} // namespace btrace
