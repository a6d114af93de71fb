/** @file Unit tests for the deterministic replay engine. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "analysis/continuity.h"
#include "core/auditor.h"
#include "core/btrace.h"
#include "sim/replay.h"
#include "workloads/catalog.h"

namespace btrace {
namespace {

ReplayOptions
quick(ReplayMode mode = ReplayMode::ThreadLevel)
{
    ReplayOptions opt;
    opt.mode = mode;
    opt.durationSec = 3.0;
    opt.rateScale = 0.3;
    return opt;
}

TracerFactoryOptions
smallFactory()
{
    TracerFactoryOptions fo;
    fo.capacityBytes = 2u << 20;
    return fo;
}

/**
 * One replay's outcome on one line: dump entries, retries, preempted
 * and unconfirmed writes, leases opened and preempted, and the modeled
 * latency's p50/p99/mean to 4 decimals. The tests below pin it per
 * tracer, so a change to the replay's write step or to a tracer's
 * cost charges shows as a changed line.
 */
std::string
outcomeLine(ReplayResult &res)
{
    char buf[256];
    std::snprintf(
        buf, sizeof buf,
        "%s entries=%zu retries=%llu preempted=%llu unconfirmed=%llu "
        "leases=%llu/%llu p50=%.4f p99=%.4f mean=%.4f",
        res.tracerName.c_str(), res.dump.entries.size(),
        static_cast<unsigned long long>(res.retries),
        static_cast<unsigned long long>(res.preemptedWrites),
        static_cast<unsigned long long>(res.unconfirmed),
        static_cast<unsigned long long>(res.leasesOpened),
        static_cast<unsigned long long>(res.leasesPreempted),
        res.latencyNs.percentile(0.50), res.latencyNs.percentile(0.99),
        res.latencyNs.mean());
    return buf;
}

/**
 * The single-threaded replay never reaches BTrace's race-only
 * branches: no lost lock CAS, no lost core-local install, no
 * reservation landing in a newer round.
 */
void
expectNoRaces(const Tracer &tracer)
{
    const auto *bt = dynamic_cast<const BTrace *>(&tracer);
    if (bt == nullptr)
        return;
    const BTraceCounters::Snapshot c = bt->countersSnapshot();
    EXPECT_EQ(c.lockRaces, 0u);
    EXPECT_EQ(c.coreRaces, 0u);
    EXPECT_EQ(c.staleAllocs, 0u);
}

TEST(Replay, StampsAreContiguousFromOne)
{
    auto tracer = makeTracer(TracerKind::BTrace, smallFactory());
    const ReplayResult res =
        replay(*tracer, workloadByName("IM"), quick());
    ASSERT_FALSE(res.produced.empty());
    for (std::size_t i = 0; i < res.produced.size(); ++i)
        ASSERT_EQ(res.produced[i].stamp, i + 1);
}

TEST(Replay, ProducedVolumeTracksWorkloadRate)
{
    auto tracer = makeTracer(TracerKind::BTrace, smallFactory());
    ReplayOptions opt = quick();
    const Workload &wl = workloadByName("IM");
    const ReplayResult res = replay(*tracer, wl, opt);
    const double expected = wl.expectedBytes() * opt.rateScale *
                            (opt.durationSec / wl.durationSec);
    EXPECT_NEAR(res.producedBytes, expected, expected * 0.25);
}

TEST(Replay, DeterministicForSameSeed)
{
    const Workload &wl = workloadByName("Video-1");
    auto t1 = makeTracer(TracerKind::BTrace, smallFactory());
    auto t2 = makeTracer(TracerKind::BTrace, smallFactory());
    const ReplayResult a = replay(*t1, wl, quick());
    const ReplayResult b = replay(*t2, wl, quick());
    ASSERT_EQ(a.produced.size(), b.produced.size());
    EXPECT_EQ(a.dump.entries.size(), b.dump.entries.size());
    EXPECT_EQ(a.preemptedWrites, b.preemptedWrites);
    EXPECT_DOUBLE_EQ(a.latencyNs.mean(), b.latencyNs.mean());
}

TEST(Replay, DifferentSeedsProduceDifferentSchedules)
{
    const Workload &wl = workloadByName("Video-1");
    auto t1 = makeTracer(TracerKind::BTrace, smallFactory());
    auto t2 = makeTracer(TracerKind::BTrace, smallFactory());
    ReplayOptions o1 = quick(), o2 = quick();
    o2.seed = 99;
    const ReplayResult a = replay(*t1, wl, o1);
    const ReplayResult b = replay(*t2, wl, o2);
    EXPECT_NE(a.produced.size(), b.produced.size());
}

TEST(Replay, CoreLevelNeverPreemptsWrites)
{
    auto tracer = makeTracer(TracerKind::BTrace, smallFactory());
    const ReplayResult res = replay(
        *tracer, workloadByName("eShop-2"), quick(ReplayMode::CoreLevel));
    EXPECT_EQ(res.preemptedWrites, 0u);
    EXPECT_EQ(res.unconfirmed, 0u);
}

TEST(Replay, ThreadLevelPreemptsSomeWrites)
{
    auto tracer = makeTracer(TracerKind::BTrace, smallFactory());
    const ReplayResult res =
        replay(*tracer, workloadByName("eShop-2"), quick());
    EXPECT_GT(res.preemptedWrites, 0u);
}

TEST(Replay, FtracePreemptionExemptByDesign)
{
    auto tracer = makeTracer(TracerKind::Ftrace, smallFactory());
    const ReplayResult res =
        replay(*tracer, workloadByName("eShop-2"), quick());
    EXPECT_EQ(res.preemptedWrites, 0u);
}

TEST(Replay, EventsAttributedToScheduledThreads)
{
    auto tracer = makeTracer(TracerKind::BTrace, smallFactory());
    const ReplayResult res =
        replay(*tracer, workloadByName("Desktop"), quick());
    for (const ProducedEvent &e : res.produced) {
        ASSERT_LT(e.core, kCores);
        // Global thread ids encode the core.
        ASSERT_EQ(e.thread / 100000u, e.core);
    }
}

TEST(Replay, LatencySamplesPlausible)
{
    auto tracer = makeTracer(TracerKind::BTrace, smallFactory());
    ReplayResult res = replay(*tracer, workloadByName("IM"), quick());
    ASSERT_GT(res.latencyNs.count(), 1000u);
    EXPECT_GT(res.latencyNs.geoMean(), 10.0);
    EXPECT_LT(res.latencyNs.geoMean(), 2000.0);
    EXPECT_GE(res.latencyNs.percentile(0.99),
              res.latencyNs.percentile(0.50));
}

TEST(Replay, DumpRetainsNewestForEveryTracer)
{
    // Each tracer's outcome, pinned. Table 2 and Fig 11 are built
    // from these runs' kind of numbers, so a change that moves a line
    // must do so on purpose.
    const char *const pinned[] = {
        "BTrace entries=24789 retries=0 preempted=10 unconfirmed=0 "
        "leases=0/0 p50=44.7200 p99=102.5200 mean=48.6071",
        "BBQ entries=24831 retries=0 preempted=53 unconfirmed=0 "
        "leases=0/0 p50=255.6800 p99=589.6000 mean=265.6474",
        "ftrace entries=20995 retries=0 preempted=0 unconfirmed=0 "
        "leases=0/0 p50=57.7200 p99=98.0400 mean=60.5145",
        "LTTng entries=20275 retries=0 preempted=58 unconfirmed=0 "
        "leases=0/0 p50=217.7200 p99=258.0400 mean=220.6054",
        "VTrace entries=14480 retries=0 preempted=52 unconfirmed=0 "
        "leases=0/0 p50=248.7200 p99=369.6800 mean=254.6237",
    };
    std::size_t i = 0;
    for (const TracerKind kind : allTracerKinds()) {
        auto tracer = makeTracer(kind, smallFactory());
        ReplayResult res =
            replay(*tracer, workloadByName("Desktop"), quick());
        const ContinuityReport rep = analyzeContinuity(res);
        EXPECT_EQ(rep.unknownStamps, 0u) << res.tracerName;
        EXPECT_EQ(rep.duplicateStamps, 0u) << res.tracerName;
        EXPECT_EQ(rep.corruptPayloads, 0u) << res.tracerName;
        EXPECT_EQ(rep.resurfacedDrops, 0u) << res.tracerName;
        EXPECT_GT(rep.retainedCount, 0u) << res.tracerName;
        EXPECT_EQ(outcomeLine(res), pinned[i++]);
        expectNoRaces(*tracer);
    }
}

TEST(Replay, RateScaleScalesVolume)
{
    const Workload &wl = workloadByName("IM");
    auto t1 = makeTracer(TracerKind::BTrace, smallFactory());
    auto t2 = makeTracer(TracerKind::BTrace, smallFactory());
    ReplayOptions lo = quick();
    lo.rateScale = 0.2;
    ReplayOptions hi = quick();
    hi.rateScale = 0.4;
    const auto a = replay(*t1, wl, lo);
    const auto b = replay(*t2, wl, hi);
    EXPECT_NEAR(double(b.produced.size()),
                2.0 * double(a.produced.size()),
                0.3 * double(b.produced.size()));
}

TEST(ReplayLeased, BTraceLeasingKeepsAccountingConsistent)
{
    auto tracer = makeTracer(TracerKind::BTrace, smallFactory());
    ReplayOptions opt = quick();
    opt.leaseEntries = 16;
    const ReplayResult res =
        replay(*tracer, workloadByName("IM"), opt);
    ASSERT_FALSE(res.produced.empty());
    EXPECT_FALSE(res.dump.entries.empty());
    EXPECT_GT(res.leasesOpened, 0u);

    auto *bt = dynamic_cast<BTrace *>(tracer.get());
    ASSERT_NE(bt, nullptr);
    EXPECT_GT(bt->countersSnapshot().leases, 0u);
    EXPECT_GT(bt->countersSnapshot().leaseEntries, 0u);
    const AuditReport rep = BTraceAuditor(*bt).audit();
    EXPECT_TRUE(rep.ok()) << rep.summary();
    expectNoRaces(*bt);
}

TEST(ReplayLeased, MidLeasePreemptionsHappenAtThreadLevel)
{
    // Thread-level scheduling hands cores between threads constantly;
    // with per-thread leases some of those handovers must catch an
    // open lease, and the revocation accounting must absorb every
    // single one (verified by the audit above and determinism below).
    auto tracer = makeTracer(TracerKind::BTrace, smallFactory());
    ReplayOptions opt = quick();
    opt.leaseEntries = 16;
    const ReplayResult res =
        replay(*tracer, workloadByName("Video-1"), opt);
    EXPECT_GT(res.leasesPreempted, 0u);
}

TEST(ReplayLeased, DeterministicForSameSeed)
{
    const Workload &wl = workloadByName("IM");
    ReplayOptions opt = quick();
    opt.leaseEntries = 8;
    auto t1 = makeTracer(TracerKind::BTrace, smallFactory());
    auto t2 = makeTracer(TracerKind::BTrace, smallFactory());
    const ReplayResult a = replay(*t1, wl, opt);
    const ReplayResult b = replay(*t2, wl, opt);
    ASSERT_EQ(a.produced.size(), b.produced.size());
    EXPECT_EQ(a.dump.entries.size(), b.dump.entries.size());
    EXPECT_EQ(a.leasesOpened, b.leasesOpened);
    EXPECT_EQ(a.leasesPreempted, b.leasesPreempted);
}

TEST(ReplayLeased, FallbackKeepsBaselinesComparable)
{
    // Baselines serve leases through their ordinary allocate/confirm
    // pair, so a leased replay exercises the same write path and
    // produces comparable volumes.
    ReplayOptions opt = quick();
    opt.leaseEntries = 16;
    // Pinned as in DumpRetainsNewestForEveryTracer. BTrace's line is
    // the leased replay's known collapse (ROADMAP: a pinned ring
    // erases itself, and a replayed lease spans its owner's idle
    // time); the fixes for those move it.
    const char *const pinned[] = {
        "BTrace entries=1 retries=486746 preempted=2 unconfirmed=0 "
        "leases=13318/13063 p50=176573252.9675 p99=3432903898.0193 "
        "mean=836004090.7861",
        "BBQ entries=25524 retries=0 preempted=39 unconfirmed=0 "
        "leases=13125/13113 p50=252.8800 p99=569.5200 mean=253.9825",
        "ftrace entries=23988 retries=0 preempted=0 unconfirmed=0 "
        "leases=13096/13084 p50=57.7200 p99=98.0400 mean=60.5993",
        "LTTng entries=22917 retries=0 preempted=58 unconfirmed=0 "
        "leases=13013/13000 p50=217.7200 p99=258.0400 mean=220.5967",
        "VTrace entries=13395 retries=0 preempted=63 unconfirmed=0 "
        "leases=13195/13183 p50=248.7200 p99=369.6800 mean=254.4277",
    };
    std::size_t i = 0;
    for (const TracerKind kind : allTracerKinds()) {
        auto tracer = makeTracer(kind, smallFactory());
        ReplayResult res = replay(*tracer, workloadByName("IM"), opt);
        EXPECT_FALSE(res.produced.empty()) << tracerKindName(kind);
        EXPECT_FALSE(res.dump.entries.empty()) << tracerKindName(kind);
        EXPECT_EQ(outcomeLine(res), pinned[i++]);
    }
}

TEST(MakeTracer, NamesAndCapacities)
{
    for (const TracerKind kind : allTracerKinds()) {
        auto tracer = makeTracer(kind, smallFactory());
        EXPECT_EQ(tracer->name(), tracerKindName(kind));
        // All tracers get the same capacity within a block's rounding.
        EXPECT_NEAR(double(tracer->capacityBytes()), double(2u << 20),
                    double(2u << 20) * 0.15)
            << tracer->name();
    }
}

TEST(MakeTracer, BTraceActiveBlocksDefaultsTo16xCores)
{
    TracerFactoryOptions fo = smallFactory();
    auto tracer = makeTracer(TracerKind::BTrace, fo);
    auto *bt = dynamic_cast<BTrace *>(tracer.get());
    ASSERT_NE(bt, nullptr);
    EXPECT_EQ(bt->config().activeBlocks, 16u * fo.cores);
}

} // namespace
} // namespace btrace
