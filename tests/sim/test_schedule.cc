/** @file Unit tests for the virtual-time slice schedule. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "sim/schedule.h"
#include "workloads/catalog.h"

namespace btrace {
namespace {

TEST(Schedule, CoreLevelHasOneThreadPerCore)
{
    const Workload &wl = workloadByName("IM");
    const SliceSchedule s =
        SliceSchedule::build(wl, ReplayMode::CoreLevel, 30.0, 1);
    for (unsigned c = 0; c < kCores; ++c) {
        EXPECT_EQ(s.distinctThreads(uint16_t(c)), 1u);
        const auto run = s.runningAt(uint16_t(c), 15.0);
        EXPECT_EQ(run.thread, SliceSchedule::globalThreadId(uint16_t(c), 0));
        EXPECT_GT(run.sliceEnd, 30.0);  // never preempted
    }
}

TEST(Schedule, ThreadLevelUsesManyThreads)
{
    const Workload &wl = workloadByName("eShop-2");
    const SliceSchedule s =
        SliceSchedule::build(wl, ReplayMode::ThreadLevel, 30.0, 1);
    for (unsigned c = 0; c < kCores; ++c) {
        // Fig 6 shape: far more than one distinct thread per core.
        EXPECT_GT(s.distinctThreads(uint16_t(c)), 30u) << "core " << c;
        EXPECT_LE(s.distinctThreads(uint16_t(c)),
                  wl.totalThreads[c]);
    }
}

TEST(Schedule, RunningAtIsConsistentWithSliceEnds)
{
    const Workload &wl = workloadByName("Browser");
    const SliceSchedule s =
        SliceSchedule::build(wl, ReplayMode::ThreadLevel, 5.0, 3);
    double t = 0.0;
    uint32_t switches = 0;
    uint32_t prev = ~0u;
    while (t < 5.0) {
        const auto run = s.runningAt(0, t);
        EXPECT_GT(run.sliceEnd, t);
        if (run.thread != prev) {
            ++switches;
            prev = run.thread;
        }
        t = run.sliceEnd;
    }
    // ~1 ms mean slices over 5 s → thousands of switches.
    EXPECT_GT(switches, 1000u);
}

TEST(Schedule, NextRunAfterFindsFutureSlice)
{
    const Workload &wl = workloadByName("IM");
    const SliceSchedule s =
        SliceSchedule::build(wl, ReplayMode::ThreadLevel, 10.0, 7);
    // Pick the thread running at t=1 and verify it runs again later
    // (working sets persist for a 1 s window).
    const auto run = s.runningAt(2, 1.0);
    const double next = s.nextRunAfter(2, run.thread, run.sliceEnd);
    if (next != SliceSchedule::never) {
        EXPECT_GT(next, run.sliceEnd);
        const auto later = s.runningAt(2, next + 1e-9);
        EXPECT_EQ(later.thread, run.thread);
    }
}

TEST(Schedule, NextRunAfterUnknownThreadIsNever)
{
    const Workload &wl = workloadByName("IM");
    const SliceSchedule s =
        SliceSchedule::build(wl, ReplayMode::ThreadLevel, 5.0, 7);
    EXPECT_EQ(s.nextRunAfter(0, 4242424u, 1.0), SliceSchedule::never);
}

TEST(Schedule, DeterministicForSameSeed)
{
    const Workload &wl = workloadByName("Video-1");
    const SliceSchedule a =
        SliceSchedule::build(wl, ReplayMode::ThreadLevel, 5.0, 11);
    const SliceSchedule b =
        SliceSchedule::build(wl, ReplayMode::ThreadLevel, 5.0, 11);
    for (double t = 0.1; t < 5.0; t += 0.37) {
        const auto ra = a.runningAt(3, t);
        const auto rb = b.runningAt(3, t);
        EXPECT_EQ(ra.thread, rb.thread);
        EXPECT_DOUBLE_EQ(ra.sliceEnd, rb.sliceEnd);
    }
}

TEST(Schedule, DifferentSeedsDiffer)
{
    const Workload &wl = workloadByName("Video-1");
    const SliceSchedule a =
        SliceSchedule::build(wl, ReplayMode::ThreadLevel, 5.0, 11);
    const SliceSchedule b =
        SliceSchedule::build(wl, ReplayMode::ThreadLevel, 5.0, 12);
    int diffs = 0;
    for (double t = 0.1; t < 5.0; t += 0.37)
        diffs += a.runningAt(3, t).thread != b.runningAt(3, t).thread;
    EXPECT_GT(diffs, 3);
}

TEST(Schedule, GlobalThreadIdsUniqueAcrossCores)
{
    EXPECT_NE(SliceSchedule::globalThreadId(0, 5),
              SliceSchedule::globalThreadId(1, 5));
    EXPECT_EQ(SliceSchedule::globalThreadId(2, 7),
              SliceSchedule::globalThreadId(2, 7));
}

TEST(Schedule, WorkingSetBoundedByActiveThreads)
{
    // Within one 1 s window the distinct thread count on a core is
    // bounded by roughly the configured active set.
    const Workload &wl = workloadByName("Desktop");
    const SliceSchedule s =
        SliceSchedule::build(wl, ReplayMode::ThreadLevel, 10.0, 5);
    std::set<uint32_t> seen;
    double t = 2.0;
    while (t < 3.0) {
        const auto run = s.runningAt(0, t);
        seen.insert(run.thread);
        t = run.sliceEnd;
    }
    EXPECT_LE(seen.size(), std::size_t(wl.activeThreads[0]) + 1);
}

#if defined(BTRACE_ENABLE_TEST_HOOKS)

TEST(PreemptionInjector, ParksAndReleasesOneArrival)
{
    PreemptionInjector inj;
    const auto p = hooks::YieldPoint::ReservePreClaim;
    inj.armPark(p);

    std::atomic<int> phase{0};
    std::thread t([&] {
        hooks::maybeYield(p);  // traps here
        phase.store(1, std::memory_order_release);
        hooks::maybeYield(p);  // trap consumed: passes through
        phase.store(2, std::memory_order_release);
    });

    ASSERT_TRUE(inj.awaitParked(p));
    EXPECT_EQ(phase.load(std::memory_order_acquire), 0);
    EXPECT_EQ(inj.hits(p), 1u);

    inj.release(p);
    t.join();
    EXPECT_EQ(phase.load(std::memory_order_acquire), 2);
    EXPECT_EQ(inj.hits(p), 2u);
}

TEST(PreemptionInjector, DisarmCancelsPendingTrap)
{
    PreemptionInjector inj;
    const auto p = hooks::YieldPoint::AdvancePreLock;
    inj.armPark(p);
    inj.disarm(p);
    hooks::maybeYield(p);  // must not block
    EXPECT_EQ(inj.hits(p), 1u);
}

TEST(PreemptionInjector, AwaitParkedTimesOutWhenNobodyArrives)
{
    PreemptionInjector inj;
    const auto p = hooks::YieldPoint::ReadPostCopy;
    inj.armPark(p);
    EXPECT_FALSE(inj.awaitParked(p, std::chrono::milliseconds(20)));
    inj.disarm(p);
}

TEST(PreemptionInjector, RandomYieldCountsHits)
{
    PreemptionInjector inj;
    inj.setRandomYield(42, 2);
    const auto p = hooks::YieldPoint::AdvancePostClaim;
    for (int i = 0; i < 1000; ++i)
        hooks::maybeYield(p);  // ~half yield; all must return
    EXPECT_EQ(inj.hits(p), 1000u);
}

TEST(PreemptionInjector, HooksAreFreeWhenNoInjectorExists)
{
    // With no injector the hook pointer is null and maybeYield is a
    // cheap no-op — the state the tracer runs in outside these tests.
    EXPECT_FALSE(hooks::hookInstalled());
    hooks::maybeYield(hooks::YieldPoint::ReservePreClaim);
    SUCCEED();
}

#endif // BTRACE_ENABLE_TEST_HOOKS

} // namespace
} // namespace btrace
