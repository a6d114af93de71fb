/**
 * @file
 * Cost-attribution profiler (DESIGN.md §14): calibration sanity, the
 * arming contract — armed-off runs are byte-identical in sharedRmws,
 * and arming adds zero shared RMWs on both the single-entry and the
 * leased fast path — phase coverage of a live tracer, the rendered
 * attribution table, and the perf_event_open degrade-to-TSC path.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/btrace.h"
#include "obs/btrace_metrics.h"
#include "obs/profiler.h"
#include "trace/event.h"

using namespace btrace;

namespace {

BTraceConfig
smallConfig()
{
    BTraceConfig cfg;
    cfg.blockSize = 256;
    cfg.cores = 2;
    cfg.activeBlocks = 4;
    cfg.numBlocks = 16;
    return cfg;
}

TEST(Profiler, PhaseNamesAreTotalAndDistinct)
{
    std::vector<std::string> seen;
    for (std::size_t i = 0; i < kProfilePhases; ++i) {
        const char *name =
            profilePhaseName(static_cast<ProfilePhase>(i));
        EXPECT_STRNE(name, "unknown") << "phase " << i;
        for (const std::string &s : seen)
            EXPECT_NE(s, name);
        seen.push_back(name);
    }
}

TEST(Profiler, CalibrationIsSane)
{
    CostProfiler p(2);
    // A tick is between 1/10 GHz-ish and the ns-clock fallback's 1:1.
    EXPECT_GT(p.nsPerTick(), 0.0);
    EXPECT_LT(p.nsPerTick(), 1000.0);
    EXPECT_GE(p.probeOverheadNs(), 0.0);
    EXPECT_LT(p.probeOverheadNs(), 10000.0);
    // The raw counter itself must move.
    const uint64_t t0 = profilerTicks();
    for (volatile int i = 0; i < 100000;)
        i = i + 1;
    EXPECT_GT(profilerTicks(), t0);
}

TEST(Profiler, AddConvertsTicksToCalibratedNanoseconds)
{
    CostProfiler p(1);
    // A delta large enough that overhead subtraction and bucket
    // granularity (~6.3%) stay small relative to the value.
    const uint64_t ticks = uint64_t(1e6 / p.nsPerTick());
    p.add(ProfilePhase::Claim, ticks);
    const ProfileSnapshot s = p.snapshot();
    EXPECT_EQ(s.of(ProfilePhase::Claim).count, 1u);
    EXPECT_EQ(s.samples(), 1u);
    const double expect =
        double(ticks) * p.nsPerTick() - p.probeOverheadNs();
    EXPECT_NEAR(double(s.of(ProfilePhase::Claim).totalNs), expect,
                expect * 0.07 + 16.0);
    EXPECT_EQ(s.attributedNs(), s.of(ProfilePhase::Claim).totalNs);

    p.clear();
    EXPECT_EQ(p.snapshot().samples(), 0u);
    // Calibration survives clear().
    EXPECT_GT(p.nsPerTick(), 0.0);
}

TEST(Profiler, ProbeSubtractsOverheadAndClampsAtZero)
{
    CostProfiler p(1);
    // A zero-tick delta must clamp, not wrap.
    p.add(ProfilePhase::Bump, 0);
    EXPECT_EQ(p.snapshot().of(ProfilePhase::Bump).totalNs, 0u);

    // An armed probe on a null profiler is a no-op at both ends.
    { PhaseProbe probe(nullptr, ProfilePhase::Claim); }
    { PhaseProbe probe(&p, ProfilePhase::Claim); }
    EXPECT_EQ(p.snapshot().of(ProfilePhase::Claim).count, 1u);
}

// Armed-off contract: a tracer with no profiler attached must behave
// byte-identically in sharedRmws to one that never heard of the
// feature — the probe sites are one relaxed load and a branch.
TEST(ProfilerContract, SharedRmwsUnchangedWhenDisarmed)
{
    const auto run = [](bool attach_then_detach) {
        BTrace bt(smallConfig());
        if (attach_then_detach) {
            CostProfiler p(1);
            bt.attachProfiler(&p);
            bt.attachProfiler(nullptr);
        }
        for (uint64_t s = 1; s <= 500; ++s)
            EXPECT_TRUE(bt.record(0, 1, s, 40));
        return bt.countersSnapshot().sharedRmws;
    };
    EXPECT_EQ(run(false), run(true));
}

// Armed-on contract, single-entry path: probes write only to
// profiler-owned per-thread shards, so an armed run reports exactly
// the same sharedRmws as a bare one — and did record probes.
TEST(ProfilerContract, ArmedSingleEntryPathAddsZeroSharedRmws)
{
    const auto run = [](CostProfiler *p) {
        BTrace bt(smallConfig());
        if (p != nullptr)
            bt.attachProfiler(p);
        for (uint64_t s = 1; s <= 500; ++s)
            EXPECT_TRUE(bt.record(0, 1, s, 40));
        return bt.countersSnapshot().sharedRmws;
    };
    const uint64_t bare = run(nullptr);
    CostProfiler p(1);
    const uint64_t armed = run(&p);
    EXPECT_EQ(bare, armed);

    const ProfileSnapshot s = p.snapshot();
    // Every record pays at least one claim FAA and one confirm
    // publish (boundary fills add a few more of each).
    EXPECT_GE(s.of(ProfilePhase::Claim).count, 500u);
    EXPECT_GE(s.of(ProfilePhase::Publish).count, 500u);
    // No lease was ever granted, so no bump/renew probes.
    EXPECT_EQ(s.of(ProfilePhase::Bump).count, 0u);
    EXPECT_EQ(s.of(ProfilePhase::LeaseRenew).count, 0u);
}

// Armed-on contract, leased path: the bump-pointer serve is probed on
// every entry yet adds zero shared RMWs; claim/publish/renew fire once
// per lease span.
TEST(ProfilerContract, ArmedLeasedPathAddsZeroSharedRmws)
{
    BTraceConfig cfg = smallConfig();
    cfg.blockSize = 4096;
    constexpr uint32_t kEntries = 200;
    constexpr uint32_t kPerLease = 8;

    const auto run = [&cfg](CostProfiler *p) {
        BTrace bt(cfg);
        if (p != nullptr)
            bt.attachProfiler(p);
        uint64_t stamp = 0;
        uint32_t written = 0;
        while (written < kEntries) {
            Lease l = bt.lease(0, 7, 40, kPerLease);
            EXPECT_TRUE(l.ok());
            if (!l.ok())
                break;
            for (uint32_t k = 0; k < kPerLease && written < kEntries;
                 ++k) {
                WriteTicket t = l.allocate(40);
                if (!t.ok())
                    break;
                writeNormal(t.dst, ++stamp, 0, 7, 0, 40);
                l.confirm(t);
                ++written;
            }
            l.close();
        }
        return bt.countersSnapshot().sharedRmws;
    };

    const uint64_t bare = run(nullptr);
    CostProfiler p(1);
    const uint64_t armed = run(&p);
    EXPECT_EQ(bare, armed);

    const ProfileSnapshot s = p.snapshot();
    // Each served entry crossed the bump-pointer probe...
    EXPECT_GE(s.of(ProfilePhase::Bump).count, uint64_t(kEntries));
    // ...while claim and renewal fired per lease, not per entry.
    EXPECT_GE(s.of(ProfilePhase::Claim).count,
              uint64_t(kEntries) / kPerLease);
    EXPECT_LT(s.of(ProfilePhase::Claim).count, uint64_t(kEntries));
    EXPECT_GT(s.of(ProfilePhase::LeaseRenew).count, 0u);
    EXPECT_GT(s.of(ProfilePhase::Publish).count, 0u);
}

// The JournalContract concurrency geometry: four threads on four
// distinct cores, each doing exactly one advancement and then staying
// inside its own block, so the shared-RMW count is interleaving-
// independent and bare vs armed must match exactly.
TEST(ProfilerContract, SharedRmwsUnchangedConcurrentFastPath)
{
    BTraceConfig cfg;
    cfg.blockSize = 4096;
    cfg.cores = 4;
    cfg.activeBlocks = 4;
    cfg.numBlocks = 8;

    const auto run = [&cfg](CostProfiler *p) {
        BTrace bt(cfg);
        if (p != nullptr)
            bt.attachProfiler(p);
        std::vector<std::thread> threads;
        for (uint16_t core = 0; core < 4; ++core) {
            threads.emplace_back([&bt, core]() {
                for (uint64_t i = 0; i < 20; ++i) {
                    ASSERT_TRUE(bt.record(core, core,
                                          uint64_t(core) * 1000 + i + 1,
                                          40));
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        return bt.countersSnapshot().sharedRmws;
    };

    const uint64_t bare = run(nullptr);
    CostProfiler p(4);
    const uint64_t armed = run(&p);
    EXPECT_EQ(bare, armed);
    EXPECT_EQ(p.snapshot().of(ProfilePhase::Claim).count, 80u);
}

TEST(Profiler, TableRendersEveryPhaseAndCalibration)
{
    CostProfiler p(1);
    for (std::size_t i = 0; i < kProfilePhases; ++i)
        p.add(static_cast<ProfilePhase>(i), 1000 + 100 * i);
    const std::string table = p.snapshot().table();
    for (std::size_t i = 0; i < kProfilePhases; ++i)
        EXPECT_NE(table.find(profilePhaseName(
                      static_cast<ProfilePhase>(i))),
                  std::string::npos)
            << table;
    EXPECT_NE(table.find("ns/tick"), std::string::npos);
}

TEST(Profiler, MetricsRegistryExportsProfileFamily)
{
    BTrace bt(smallConfig());
    CostProfiler p(1);
    bt.attachProfiler(&p);
    for (uint64_t s = 1; s <= 50; ++s)
        EXPECT_TRUE(bt.record(0, 1, s, 40));
    bt.attachProfiler(nullptr);

    MetricsRegistry reg;
    registerProfilerMetrics(reg, p);
    const auto c = reg.collect();

    bool samplesTotal = false, nsPerTick = false, overhead = false;
    for (const MetricValue &m : c.metrics) {
        if (m.name == "btrace_profile_samples_total") {
            samplesTotal = true;
            EXPECT_EQ(m.kind, MetricKind::Counter);
            EXPECT_DOUBLE_EQ(m.value, double(p.snapshot().samples()));
        }
        if (m.name == "btrace_profile_ns_per_tick") {
            nsPerTick = true;
            EXPECT_GT(m.value, 0.0);
        }
        if (m.name == "btrace_profile_probe_overhead_ns")
            overhead = true;
    }
    EXPECT_TRUE(samplesTotal);
    EXPECT_TRUE(nsPerTick);
    EXPECT_TRUE(overhead);

    std::size_t phaseHists = 0;
    for (const HistogramValue &h : c.histograms)
        if (h.name.rfind("btrace_profile_", 0) == 0) {
            ++phaseHists;
            if (h.name == "btrace_profile_claim_ns") {
                EXPECT_GE(h.count, 50u);
            }
        }
    EXPECT_EQ(phaseHists, kProfilePhases);
}

// perf_event_open is frequently unavailable (seccomp, paranoid level,
// VMs without a PMU): either it opens and counts, or it fails with an
// explanation — never silently, never fatally.
TEST(Profiler, PerfCountersOpenOrExplain)
{
    ThreadPerfCounters c;
    if (c.open()) {
        EXPECT_TRUE(c.ok());
        EXPECT_TRUE(c.error().empty());
        c.reset();
        for (volatile int i = 0; i < 1000000;)
            i = i + 1;
        const PerfSample s = c.read();
        EXPECT_GT(s.cycles, 0u);
    } else {
        EXPECT_FALSE(c.ok());
        EXPECT_FALSE(c.error().empty());
        // Degraded reads are zeros, not crashes.
        const PerfSample s = c.read();
        EXPECT_EQ(s.cycles, 0u);
        c.reset();
    }
}

} // namespace
