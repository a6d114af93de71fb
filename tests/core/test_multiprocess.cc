/**
 * @file
 * Fork-based crash tests of the multi-process ownership protocol
 * (DESIGN.md §11): a child process attaches to the shared arena,
 * takes a lease, and is SIGKILLed at the worst moments — mid-lease
 * and parked at the LeasePreCloseConfirm window (close begun, tail
 * not yet returned, bulk confirm not yet published). The parent then
 * proves the child dead, reclaims its lease through the
 * graveyard-close path, and audits the completeness invariant: every
 * live round complete or open, every byte confirmed exactly once, the
 * arena fully usable again.
 *
 * Children never run gtest machinery: they report readiness over a
 * pipe and die by SIGKILL (or _exit), so no atexit/teardown runs in
 * the forked copy.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/test_hooks.h"
#include "core/auditor.h"
#include "core/session.h"
#include "inspector.h"

namespace btrace {
namespace {

BTraceConfig
shmConfig()
{
    BTraceConfig cfg;
    cfg.blockSize = 256;
    cfg.numBlocks = 32;
    cfg.activeBlocks = 8;
    cfg.cores = 4;
    cfg.storage = StorageKind::Shm;
    return cfg;
}

/** Block until one byte arrives on @p fd; false on EOF/error. */
bool
readByte(int fd)
{
    char b = 0;
    return ::read(fd, &b, 1) == 1;
}

void
signalParent(int fd)
{
    const char b = 'R';
    (void)!::write(fd, &b, 1);
}

/**
 * Audit the parent's view after a reclaim: all A live rounds are
 * either complete or still open, and the byte tiling checks out.
 */
void
expectAuditClean(BTrace &bt, std::size_t active_blocks)
{
    const AuditReport rep = BTraceAuditor(bt).audit();
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rep.totals.completeBlocks + rep.totals.partialBlocks,
              active_blocks);
}

/** Context of the LeasePreCloseConfirm parking hook (see below). */
struct ParkCtx
{
    int readyFd;
};

void
parkAtPreCloseConfirm(hooks::YieldPoint p, void *ctx)
{
    if (p != hooks::YieldPoint::LeasePreCloseConfirm)
        return;
    auto *pc = static_cast<ParkCtx *>(ctx);
    signalParent(pc->readyFd);
    for (;;)
        ::pause();  // hold the window open until SIGKILL
}

TEST(MultiProcess, SweepReclaimsLeaseOfKilledChild)
{
    auto owner = Session::create(shmConfig());
    ASSERT_TRUE(owner.ok()) << owner.status().toString();
    Session o = owner.take();
    const int arenaFd = o.shareFd();
    ASSERT_GE(arenaFd, 0);

    int pipeFds[2];
    ASSERT_EQ(::pipe(pipeFds), 0);

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child: attach as our own registered process, write a few
        // entries through a lease, then stall mid-lease forever.
        ::close(pipeFds[0]);
        auto sess = Session::attachFd(arenaFd);
        if (!sess.ok())
            ::_exit(10);
        Session a = sess.take();
        Lease l = a->lease(1, uint32_t(::getpid()), 16, 8);
        if (!l.ok())
            ::_exit(11);
        for (int k = 0; k < 3; ++k) {
            WriteTicket t = l.allocate(16);
            if (!t.ok())
                ::_exit(12);
            writeNormal(t.dst, uint64_t(k + 1), 1,
                        uint32_t(::getpid()), 0, 16);
            l.confirm(t);
        }
        signalParent(pipeFds[1]);
        for (;;)
            ::pause();  // never closes the lease; SIGKILL target
    }

    ::close(pipeFds[1]);
    ASSERT_TRUE(readByte(pipeFds[0]));
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    ::close(pipeFds[0]);

    // The child died holding an Active lease record. Prove it dead
    // and reclaim: registry slot cleared, span dummy-filled, block
    // graveyard-closed.
    const SweepReport rep = o.sweepDeadOwners();
    EXPECT_EQ(rep.clearedAttachments, 1u);
    EXPECT_EQ(rep.reclaimedLeases, 1u);
    EXPECT_GT(rep.reclaimedBytes, 0u);
    EXPECT_EQ(rep.ambiguousCloses, 0u);

    // A second sweep finds nothing.
    const SweepReport again = o.sweepDeadOwners();
    EXPECT_EQ(again.clearedAttachments, 0u);
    EXPECT_EQ(again.reclaimedLeases, 0u);

    expectAuditClean(o.tracer(), shmConfig().activeBlocks);

    // The arena is fully usable: the reclaimed block completes and
    // recirculates under continued load.
    for (uint64_t s = 1; s <= 500; ++s)
        ASSERT_TRUE(o->record(0, 1, s, 16));
    expectAuditClean(o.tracer(), shmConfig().activeBlocks);
}

TEST(MultiProcess, SweepReclaimsChildParkedAtPreCloseConfirm)
{
    auto owner = Session::create(shmConfig());
    ASSERT_TRUE(owner.ok()) << owner.status().toString();
    Session o = owner.take();
    const int arenaFd = o.shareFd();

    int pipeFds[2];
    ASSERT_EQ(::pipe(pipeFds), 0);

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child: write through a lease, then die *inside* leaseClose
        // — tail not yet returned, Confirmed publish still pending,
        // owner record still Active. The narrowest window the
        // sweeper has to get right: claiming the record before the
        // (dead) producer's confirm must not double-publish.
        ::close(pipeFds[0]);
        auto sess = Session::attachFd(arenaFd);
        if (!sess.ok())
            ::_exit(10);
        Session a = sess.take();
        Lease l = a->lease(1, uint32_t(::getpid()), 16, 8);
        if (!l.ok())
            ::_exit(11);
        WriteTicket t = l.allocate(16);
        if (!t.ok())
            ::_exit(12);
        writeNormal(t.dst, 77, 1, uint32_t(::getpid()), 0, 16);
        l.confirm(t);

        static ParkCtx ctx;
        ctx.readyFd = pipeFds[1];
        hooks::setHook(parkAtPreCloseConfirm, &ctx);
        l.close();   // parks at LeasePreCloseConfirm; never returns
        ::_exit(13); // unreachable
    }

    ::close(pipeFds[1]);
    ASSERT_TRUE(readByte(pipeFds[0]));
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    ::close(pipeFds[0]);

    const SweepReport rep = o.sweepDeadOwners();
    EXPECT_EQ(rep.clearedAttachments, 1u);
    EXPECT_EQ(rep.reclaimedLeases, 1u);

    expectAuditClean(o.tracer(), shmConfig().activeBlocks);

    for (uint64_t s = 1; s <= 500; ++s)
        ASSERT_TRUE(o->record(0, 1, s, 16));
    expectAuditClean(o.tracer(), shmConfig().activeBlocks);
}

TEST(MultiProcess, CleanChildExitLeavesNothingToSweep)
{
    auto owner = Session::create(shmConfig());
    ASSERT_TRUE(owner.ok()) << owner.status().toString();
    Session o = owner.take();
    const int arenaFd = o.shareFd();

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        {
            auto sess = Session::attachFd(arenaFd);
            if (!sess.ok())
                ::_exit(10);
            Session a = sess.take();
            for (uint64_t s = 1; s <= 40; ++s)
                if (!a->record(2, uint32_t(::getpid()), s, 16))
                    ::_exit(11);
            // ~Session runs here: the clean detach path.
        }
        ::_exit(0);
    }

    int wstatus = 0;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), 0);

    // Clean detach released the registry slot: nothing to sweep, and
    // the child's entries are durable.
    const SweepReport rep = o.sweepDeadOwners();
    EXPECT_EQ(rep.clearedAttachments, 0u);
    EXPECT_EQ(rep.reclaimedLeases, 0u);

    const Dump d = o->dump();
    EXPECT_EQ(d.entries.size(), 40u);
}

TEST(MultiProcess, SweepReclaimsSeveralKilledChildren)
{
    auto owner = Session::create(shmConfig());
    ASSERT_TRUE(owner.ok()) << owner.status().toString();
    Session o = owner.take();
    const int arenaFd = o.shareFd();

    constexpr int kChildren = 3;
    pid_t kids[kChildren];
    int pipes[kChildren][2];
    for (int c = 0; c < kChildren; ++c) {
        ASSERT_EQ(::pipe(pipes[c]), 0);
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ::close(pipes[c][0]);
            auto sess = Session::attachFd(arenaFd);
            if (!sess.ok())
                ::_exit(10);
            Session a = sess.take();
            // Distinct cores so every child holds its own block.
            Lease l = a->lease(uint16_t(c), uint32_t(::getpid()), 16, 4);
            if (!l.ok())
                ::_exit(11);
            WriteTicket t = l.allocate(16);
            if (!t.ok())
                ::_exit(12);
            writeNormal(t.dst, uint64_t(c + 1), uint16_t(c),
                        uint32_t(::getpid()), 0, 16);
            l.confirm(t);
            signalParent(pipes[c][1]);
            for (;;)
                ::pause();
        }
        kids[c] = pid;
        ::close(pipes[c][1]);
    }
    for (int c = 0; c < kChildren; ++c) {
        ASSERT_TRUE(readByte(pipes[c][0]));
        ::close(pipes[c][0]);
    }
    for (int c = 0; c < kChildren; ++c) {
        ASSERT_EQ(::kill(kids[c], SIGKILL), 0);
        int wstatus = 0;
        ASSERT_EQ(::waitpid(kids[c], &wstatus, 0), kids[c]);
    }

    const SweepReport rep = o.sweepDeadOwners();
    EXPECT_EQ(rep.clearedAttachments, uint64_t(kChildren));
    EXPECT_EQ(rep.reclaimedLeases, uint64_t(kChildren));

    expectAuditClean(o.tracer(), shmConfig().activeBlocks);

    for (uint64_t s = 1; s <= 500; ++s)
        ASSERT_TRUE(o->record(0, 1, s, 16));
    expectAuditClean(o.tracer(), shmConfig().activeBlocks);
}

TEST(MultiProcess, KilledChildWithoutLeaseOnlyClearsRegistry)
{
    auto owner = Session::create(shmConfig());
    ASSERT_TRUE(owner.ok()) << owner.status().toString();
    Session o = owner.take();
    const int arenaFd = o.shareFd();

    int pipeFds[2];
    ASSERT_EQ(::pipe(pipeFds), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ::close(pipeFds[0]);
        auto sess = Session::attachFd(arenaFd);
        if (!sess.ok())
            ::_exit(10);
        Session a = sess.take();
        // Ordinary confirmed writes only — nothing left outstanding.
        for (uint64_t s = 1; s <= 10; ++s)
            if (!a->record(1, uint32_t(::getpid()), s, 16))
                ::_exit(11);
        signalParent(pipeFds[1]);
        for (;;)
            ::pause();
    }
    ::close(pipeFds[1]);
    ASSERT_TRUE(readByte(pipeFds[0]));
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
    ::close(pipeFds[0]);

    const SweepReport rep = o.sweepDeadOwners();
    EXPECT_EQ(rep.clearedAttachments, 1u);
    EXPECT_EQ(rep.reclaimedLeases, 0u);  // no lease was outstanding

    // The child's confirmed entries survive the crash.
    const Dump d = o->dump();
    EXPECT_EQ(d.entries.size(), 10u);
}

/** Owner records ever stamped in @p bt's table (any state). */
std::size_t
stampedOwnerRecords(BTrace &bt)
{
    const BTraceInspector insp(bt);
    std::size_t n = 0;
    for (std::size_t i = 0; i < kLeaseOwnerSlots; ++i)
        n += insp.ownerRecord(i).leaseSeq.load(
                 std::memory_order_acquire) != 0;
    return n;
}

TEST(MultiProcess, BackToBackLeasesReuseOneOwnerRecord)
{
    auto owner = Session::create(shmConfig());
    ASSERT_TRUE(owner.ok()) << owner.status().toString();
    Session o = owner.take();

    // Each lease re-claims the record the previous close freed. The
    // thread's probe start carries over from earlier tests in this
    // binary, so count the stamps instead of naming an index.
    for (uint64_t k = 1; k <= 10; ++k) {
        Lease l = o->lease(0, 1, 16, 2);
        ASSERT_TRUE(l.ok());
        WriteTicket t = l.allocate(16);
        ASSERT_TRUE(t.ok());
        writeNormal(t.dst, k, 0, 1, 0, 16);
        l.confirm(t);
        l.close();
    }
    EXPECT_EQ(stampedOwnerRecords(o.tracer()), 1u);

    // A lease opened while another is still open needs its own record.
    Lease a = o->lease(0, 1, 16, 1);
    Lease b = o->lease(1, 1, 16, 1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(stampedOwnerRecords(o.tracer()), 2u);
    a.close();
    b.close();
    expectAuditClean(o.tracer(), shmConfig().activeBlocks);
}

TEST(MultiProcess, LeaseSeqUniqueAcrossCores)
{
    auto owner = Session::create(shmConfig());
    ASSERT_TRUE(owner.ok()) << owner.status().toString();
    Session o = owner.take();
    const BTraceInspector insp(o.tracer());

    // Leases open at once on every core stamp one record each; a
    // sweeper tells them apart by (attachGen, leaseSeq).
    std::vector<Lease> open;
    for (uint16_t core = 0; core < 4; ++core) {
        open.push_back(o->lease(core, 1, 16, 2));
        ASSERT_TRUE(open.back().ok());
    }
    std::set<uint64_t> seqs;
    std::size_t active = 0;
    for (std::size_t i = 0; i < kLeaseOwnerSlots; ++i) {
        const LeaseOwnerRecord &r = insp.ownerRecord(i);
        if (r.state.load(std::memory_order_acquire) !=
            LeaseOwnerRecord::Active)
            continue;
        ++active;
        EXPECT_EQ(r.attachGen.load(std::memory_order_relaxed),
                  o->attachGeneration());
        const uint64_t seq = r.leaseSeq.load(std::memory_order_relaxed);
        EXPECT_NE(seq, 0u);
        seqs.insert(seq);
    }
    EXPECT_EQ(active, 4u);
    EXPECT_EQ(seqs.size(), 4u);
    open.clear();
    expectAuditClean(o.tracer(), shmConfig().activeBlocks);
}

} // namespace
} // namespace btrace
