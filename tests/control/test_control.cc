/**
 * @file
 * Dynamic control plane tests (DESIGN.md §12): config validation,
 * control-file parsing, deterministic sampling semantics, the
 * ControlContract (zero added shared RMWs), snapshot-swap
 * interleavings (deterministic ControlPreSwap + a TSan hammer), the
 * arena control page protocol across attachments, and the governor's
 * grow/shrink/throttle policy live against a real tracer
 * (GovernorLive).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "control/control_file.h"
#include "control/governor.h"
#include "control/snapshot.h"
#include "core/btrace.h"
#include "core/session.h"
#include "daemon/daemon.h"
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

// ---------------------------------------------------------------------------
// ControlConfig validation (satellite: validate() coverage)

TEST(ControlConfigValidate, DefaultsAreValidAndDefault)
{
    ControlConfig c;
    EXPECT_TRUE(c.validate().ok());
    EXPECT_TRUE(c.isDefault());
}

TEST(ControlConfigValidate, RejectsOutOfRangeRates)
{
    ControlConfig c;
    c.sampleRate = -0.1;
    EXPECT_EQ(c.validate().code(), StatusCode::InvalidArgument);
    c.sampleRate = 1.5;
    EXPECT_EQ(c.validate().code(), StatusCode::InvalidArgument);
    c.sampleRate = 0.5;
    EXPECT_TRUE(c.validate().ok());
    EXPECT_FALSE(c.isDefault());
    c.categoryRate[3] = 2.0;
    EXPECT_EQ(c.validate().code(), StatusCode::InvalidArgument);
    c.categoryRate[3] = -1.0;  // inherit: valid
    EXPECT_TRUE(c.validate().ok());
}

TEST(ControlConfigValidate, RejectsFirstKOverBudget)
{
    ControlConfig c;
    c.firstK = 100;
    c.recordBudget = 10;
    EXPECT_EQ(c.validate().code(), StatusCode::InvalidArgument);
    c.recordBudget = 100;
    EXPECT_TRUE(c.validate().ok());
}

TEST(ControlConfigValidate, RejectsMinOverMaxRingBounds)
{
    ControlConfig c;
    c.ringMinBlocks = 64;
    c.ringMaxBlocks = 32;
    EXPECT_EQ(c.validate().code(), StatusCode::InvalidArgument);
    c.ringMaxBlocks = 64;
    EXPECT_TRUE(c.validate().ok());
}

TEST(ControlConfigValidate, RejectsNonPositiveInterval)
{
    ControlConfig c;
    c.intervalSec = 0.0;
    EXPECT_EQ(c.validate().code(), StatusCode::InvalidArgument);
}

TEST(ControlConfigValidate, BTraceConfigCrossChecksRingBounds)
{
    BTraceConfig cfg = smallConfig();  // A = 8, max = numBlocks = 32
    cfg.control.ringMinBlocks = 12;    // not a multiple of A
    EXPECT_EQ(cfg.validate().code(), StatusCode::InvalidArgument);
    cfg.control.ringMinBlocks = 8;
    cfg.control.ringMaxBlocks = 64;  // beyond effectiveMaxBlocks
    EXPECT_EQ(cfg.validate().code(), StatusCode::InvalidArgument);
    cfg.control.ringMaxBlocks = 32;
    EXPECT_TRUE(cfg.validate().ok());
}

TEST(ControlConfigValidate, SessionCreateSurfacesControlErrors)
{
    BTraceConfig cfg = smallConfig();
    cfg.control.sampleRate = 7.0;
    auto s = Session::create(cfg);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::InvalidArgument);
    EXPECT_EQ(exitCodeFor(s.status().code()), 2);
}

// ---------------------------------------------------------------------------
// Control-file parser

TEST(ControlFile, ParsesFullGrammar)
{
    auto r = parseControlText("# comment\n"
                              "sample_rate = 0.25\n"
                              "category_rate.3 = 1.0  # keep errors\n"
                              "first_k = 5\n"
                              "interval_sec = 0.5\n"
                              "record_budget = 1000\n"
                              "ring_min_blocks = 8\n"
                              "ring_max_blocks = 32\n"
                              "journal = on\n"
                              "watchdog = off\n");
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const ControlConfig &c = r.value();
    EXPECT_DOUBLE_EQ(c.sampleRate, 0.25);
    EXPECT_DOUBLE_EQ(c.categoryRate[3], 1.0);
    EXPECT_LT(c.categoryRate[0], 0.0);
    EXPECT_EQ(c.firstK, 5u);
    EXPECT_DOUBLE_EQ(c.intervalSec, 0.5);
    EXPECT_EQ(c.recordBudget, 1000u);
    EXPECT_EQ(c.ringMinBlocks, 8u);
    EXPECT_EQ(c.ringMaxBlocks, 32u);
    EXPECT_TRUE(c.journalEnabled);
    EXPECT_FALSE(c.watchdogEnabled);
}

TEST(ControlFile, EmptyTextIsDefaults)
{
    auto r = parseControlText("\n# only comments\n\n");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().isDefault());
}

TEST(ControlFile, RejectsMalformedInput)
{
    EXPECT_EQ(parseControlText("sample_rate 0.5\n").status().code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(parseControlText("no_such_knob = 1\n").status().code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(parseControlText("sample_rate = abc\n").status().code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(
        parseControlText("category_rate.16 = 0.5\n").status().code(),
        StatusCode::InvalidArgument);
    // Parsed fine, rejected by ControlConfig::validate.
    EXPECT_EQ(parseControlText("sample_rate = 2.0\n").status().code(),
              StatusCode::InvalidArgument);
}

TEST(ControlFile, LoadAndWatcher)
{
    const std::string path =
        testing::TempDir() + "/btrace_ctl_test.conf";
    std::remove(path.c_str());
    EXPECT_EQ(loadControlFile(path).status().code(),
              StatusCode::NotFound);

    ControlFileWatcher w(path);
    EXPECT_FALSE(w.changed());  // absent: no change

    FILE *f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("sample_rate = 0.5\n", f);
    fclose(f);
    EXPECT_FALSE(w.changed());  // first sighting primes the watcher
    auto r = loadControlFile(path);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r.value().sampleRate, 0.5);

    // A rewrite with different content/size must register.
    f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("sample_rate = 0.25\nfirst_k = 2\n", f);
    fclose(f);
    EXPECT_TRUE(w.changed());
    EXPECT_FALSE(w.changed());  // and only once
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Snapshot semantics

TEST(ControlSnapshot, SamplingIsDeterministicInThreadAndStamp)
{
    ControlDecisionState st;
    ControlConfig c;
    c.sampleRate = 0.3;
    const ControlSnapshot s = ControlSnapshot::build(1, c, &st);
    unsigned recorded = 0;
    for (uint64_t stamp = 1; stamp <= 10000; ++stamp) {
        const bool a = s.shouldRecord(0, 7, stamp);
        const bool b = s.shouldRecord(0, 7, stamp);
        EXPECT_EQ(a, b);  // replay-stable: same inputs, same decision
        recorded += a;
    }
    // The hash should land near the configured rate.
    EXPECT_GT(recorded, 2500u);
    EXPECT_LT(recorded, 3500u);
}

TEST(ControlSnapshot, RateZeroShedsAllButFirstK)
{
    ControlDecisionState st;
    ControlConfig c;
    c.sampleRate = 0.0;
    c.firstK = 3;
    c.intervalSec = 3600.0;  // one epoch for the whole test
    const ControlSnapshot s = ControlSnapshot::build(1, c, &st);
    unsigned recorded = 0;
    for (uint64_t stamp = 1; stamp <= 100; ++stamp)
        recorded += s.shouldRecord(5, 1, stamp);
    EXPECT_EQ(recorded, 3u);  // exactly the guarantee
    EXPECT_EQ(st.firstKGrants.load(), 3u);
    EXPECT_EQ(st.sampledOut.load(), 97u);

    // A different category slot has its own guarantee.
    recorded = 0;
    for (uint64_t stamp = 1; stamp <= 10; ++stamp)
        recorded += s.shouldRecord(6, 1, stamp);
    EXPECT_EQ(recorded, 3u);
}

TEST(ControlSnapshot, CategoryOverrideBeatsGlobalRate)
{
    ControlDecisionState st;
    ControlConfig c;
    c.sampleRate = 0.0;
    c.categoryRate[2] = 1.0;
    const ControlSnapshot s = ControlSnapshot::build(1, c, &st);
    unsigned cat2 = 0, cat0 = 0;
    for (uint64_t stamp = 1; stamp <= 50; ++stamp) {
        cat2 += s.shouldRecord(2, 1, stamp);
        cat0 += s.shouldRecord(0, 1, stamp);
    }
    EXPECT_EQ(cat2, 50u);
    EXPECT_EQ(cat0, 0u);
}

TEST(ControlSnapshot, RecordBudgetCapsAnInterval)
{
    ControlDecisionState st;
    ControlConfig c;
    c.recordBudget = 10;
    c.intervalSec = 3600.0;
    const ControlSnapshot s = ControlSnapshot::build(1, c, &st);
    unsigned recorded = 0;
    for (uint64_t stamp = 1; stamp <= 100; ++stamp)
        recorded += s.shouldRecord(0, 1, stamp);
    EXPECT_EQ(recorded, 10u);
    EXPECT_EQ(st.budgetDenied.load(), 90u);
}

// ---------------------------------------------------------------------------
// ControlContract: the plane must add zero shared RMWs

// Single-thread record path: a permissive-but-non-default snapshot
// (every event passes the gate) must leave sharedRmws byte-identical
// to the controls-at-default run — decision state is plane-owned and
// never charged (same bar as the journal and the profiler).
TEST(ControlContract, SharedRmwsUnchangedSingleThread)
{
    uint64_t rmws[2] = {0, 0};
    const auto run = [&rmws](bool apply_control) {
        BTrace bt(smallConfig());
        if (apply_control) {
            ControlConfig c;
            c.ringMinBlocks = 8;  // non-default => snapshot published
            c.ringMaxBlocks = 32;
            ASSERT_TRUE(bt.applyControl(c).ok());
            ASSERT_NE(bt.controlSnapshot(), nullptr);
        } else {
            EXPECT_EQ(bt.controlSnapshot(), nullptr);
        }
        for (uint64_t s = 1; s <= 500; ++s)
            EXPECT_TRUE(bt.record(0, 1, s, 40));
        rmws[apply_control] = bt.countersSnapshot().sharedRmws;
    };
    run(false);
    run(true);
    EXPECT_EQ(rmws[0], rmws[1]);
}

// Leased fast path, deterministic four-core shape (the acceptance
// criterion's "leased fast path byte-identical" clause).
TEST(ControlContract, SharedRmwsUnchangedLeasedFastPath)
{
    BTraceConfig cfg = smallConfig(1 << 16, 8, 4, 4);

    uint64_t rmws[2] = {0, 0};
    const auto run = [&cfg, &rmws](bool apply_control) {
        BTrace bt(cfg);
        if (apply_control) {
            ControlConfig c;
            c.ringMinBlocks = 4;
            c.ringMaxBlocks = 8;
            ASSERT_TRUE(bt.applyControl(c).ok());
        }
        std::vector<std::thread> threads;
        for (uint16_t core = 0; core < 4; ++core) {
            threads.emplace_back([&bt, core] {
                Lease l = bt.lease(core, core, 16, 20);
                ASSERT_TRUE(l.ok());
                for (uint64_t i = 0; i < 20; ++i) {
                    const uint64_t stamp =
                        uint64_t(core) * 1000 + i + 1;
                    if (!bt.shouldRecord(0, core, stamp))
                        continue;  // the lease-path sampling gate
                    WriteTicket t = l.allocate(16);
                    ASSERT_TRUE(t.ok());
                    writeNormal(t.dst, stamp, core, core, 0, 16);
                    l.confirm(t);
                }
                l.close();
            });
        }
        for (std::thread &t : threads)
            t.join();
        rmws[apply_control] = bt.countersSnapshot().sharedRmws;
    };
    run(false);
    run(true);
    EXPECT_EQ(rmws[0], rmws[1]);
}

// Throttle, then restore to all-defaults: the restored version must
// publish a null snapshot again, so the fast path is back to the
// contract cost.
TEST(ControlContract, RestoredDefaultsPublishNullAgain)
{
    BTrace bt(smallConfig());
    ControlConfig c;
    c.sampleRate = 0.5;
    ASSERT_TRUE(bt.applyControl(c).ok());
    EXPECT_NE(bt.controlSnapshot(), nullptr);
    EXPECT_EQ(bt.controlPlane().version(), 2u);

    ASSERT_TRUE(bt.applyControl(ControlConfig{}).ok());
    EXPECT_EQ(bt.controlSnapshot(), nullptr);
    EXPECT_EQ(bt.controlPlane().version(), 3u);
    EXPECT_EQ(bt.controlPlane().history().size(), 3u);
}

// ---------------------------------------------------------------------------
// Snapshot swap: deterministic interleaving + TSan hammer

#if defined(BTRACE_ENABLE_TEST_HOOKS)
TEST(ControlSwap, PreSwapWindowServesOldVersion)
{
    BTrace bt(smallConfig());

    PreemptionInjector inj;
    inj.armPark(hooks::YieldPoint::ControlPreSwap);

    ControlConfig c;
    c.sampleRate = 0.0;  // the new version sheds everything
    std::thread applier([&] { ASSERT_TRUE(bt.applyControl(c).ok()); });
    ASSERT_TRUE(inj.awaitParked(hooks::YieldPoint::ControlPreSwap));

    // The applier is parked *between* building the snapshot and the
    // pointer swap: the old version (defaults) must still serve.
    EXPECT_EQ(bt.controlSnapshot(), nullptr);
    for (uint64_t s = 1; s <= 50; ++s)
        EXPECT_TRUE(bt.shouldRecord(0, 1, s));
    EXPECT_EQ(bt.controlPlane().decisions().sampledOut.load(), 0u);

    inj.release(hooks::YieldPoint::ControlPreSwap);
    applier.join();

    // Swap done: rate 0 now sheds on the same inputs.
    ASSERT_NE(bt.controlSnapshot(), nullptr);
    for (uint64_t s = 1; s <= 50; ++s)
        EXPECT_FALSE(bt.shouldRecord(0, 1, s));
    EXPECT_EQ(bt.controlPlane().decisions().sampledOut.load(), 50u);
}
#endif // BTRACE_ENABLE_TEST_HOOKS

// Four producer threads recording through the lease fast path while a
// fifth hammers applyControl(): no torn snapshots, no lost writes, no
// data races (this is the binary CI runs under TSan).
TEST(ControlSwap, ApplyControlHammerAgainstLeasedProducers)
{
    BTraceConfig cfg = smallConfig(1 << 14, 32, 8, 4);
    BTrace bt(cfg);

    std::atomic<bool> stop{false};
    std::vector<std::thread> producers;
    std::atomic<uint64_t> written{0};
    for (uint16_t core = 0; core < 4; ++core) {
        producers.emplace_back([&, core] {
            uint64_t stamp = uint64_t(core) << 32;
            while (!stop.load(std::memory_order_relaxed)) {
                Lease l = bt.lease(core, core, 16, 32);
                ASSERT_TRUE(l.ok());
                for (int i = 0; i < 32; ++i) {
                    ++stamp;
                    if (!bt.shouldRecord(uint16_t(i & 15),
                                         core, stamp))
                        continue;
                    WriteTicket t = l.allocate(16);
                    if (!t.ok())
                        break;
                    writeNormal(t.dst, stamp, core, core, 0, 16);
                    l.confirm(t);
                    written.fetch_add(1, std::memory_order_relaxed);
                }
                l.close();
            }
        });
    }

    std::thread applier([&] {
        ControlConfig cfgs[3];
        cfgs[0].sampleRate = 0.5;
        cfgs[1].sampleRate = 0.05;
        cfgs[1].firstK = 2;
        // cfgs[2] stays defaults (null snapshot).
        for (int i = 0; i < 300; ++i)
            ASSERT_TRUE(bt.applyControl(cfgs[i % 3]).ok());
    });
    applier.join();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &t : producers)
        t.join();

    EXPECT_EQ(bt.controlPlane().version(), 301u);
    EXPECT_GT(written.load(), 0u);
}

// ---------------------------------------------------------------------------
// Arena control page: cross-attachment propagation

TEST(ControlPage, ApplyPropagatesAcrossFileAttachments)
{
    const std::string path =
        testing::TempDir() + "/btrace_ctl_page.arena";
    std::remove(path.c_str());

    BTraceConfig cfg = smallConfig();
    cfg.storage = StorageKind::File;
    cfg.arenaPath = path;
    {
        auto owner_e = Session::create(cfg);
        ASSERT_TRUE(owner_e.ok()) << owner_e.status().toString();
        Session owner = std::move(owner_e.value());

        auto peer_e = Session::attachFile(path);
        ASSERT_TRUE(peer_e.ok()) << peer_e.status().toString();
        Session peer = std::move(peer_e.value());

        // Both start at the owner's version 1 (defaults).
        EXPECT_EQ(owner->controlPlane().version(), 1u);
        EXPECT_EQ(peer->controlPlane().version(), 1u);
        EXPECT_FALSE(peer.pollControl());  // nothing new

        // Owner retunes; the peer adopts it on poll.
        ControlConfig c;
        c.sampleRate = 0.125;
        c.firstK = 4;
        ASSERT_TRUE(owner.applyControl(c).ok());
        EXPECT_TRUE(peer.pollControl());
        EXPECT_EQ(peer->controlPlane().version(), 2u);
        EXPECT_DOUBLE_EQ(peer->controlPlane().current().sampleRate,
                         0.125);
        EXPECT_EQ(peer->controlPlane().current().firstK, 4u);
        EXPECT_NE(peer->controlSnapshot(), nullptr);

        // And the other direction: the peer can retune the owner.
        ASSERT_TRUE(peer.applyControl(ControlConfig{}).ok());
        EXPECT_TRUE(owner.pollControl());
        EXPECT_EQ(owner->controlPlane().version(), 3u);
        EXPECT_EQ(owner->controlSnapshot(), nullptr);

        // A late attachment adopts the newest version at bind time.
        auto late = Session::attachFile(path);
        ASSERT_TRUE(late.ok());
        EXPECT_EQ(late.value()->controlPlane().version(), 3u);
    }
    std::remove(path.c_str());
}

#if defined(BTRACE_ENABLE_TEST_HOOKS) && BTRACE_ENABLE_TEST_HOOKS
TEST(ControlPage, LockFreePollWaitsForAnUnswappedVersion)
{
    // poll() skips the plane's lock while the page shows nothing newer
    // than the version this attachment serves. A poller adopting
    // version 2 is parked before its snapshot swap: a second poller
    // must not take the lock-free exit and run on version 1 meanwhile.
    BTraceConfig cfg = smallConfig();
    cfg.storage = StorageKind::Shm;
    auto owner_e = Session::create(cfg);
    ASSERT_TRUE(owner_e.ok()) << owner_e.status().toString();
    Session owner = std::move(owner_e.value());
    auto peer_e = Session::attachFd(owner.shareFd());
    ASSERT_TRUE(peer_e.ok()) << peer_e.status().toString();
    Session peer = std::move(peer_e.value());

    ControlConfig c;
    c.sampleRate = 0.25;
    ASSERT_TRUE(owner.applyControl(c).ok());

    PreemptionInjector inj;
    inj.armPark(hooks::YieldPoint::ControlPreSwap);
    std::thread adopter([&] { EXPECT_TRUE(peer.pollControl()); });
    ASSERT_TRUE(inj.awaitParked(hooks::YieldPoint::ControlPreSwap));
    EXPECT_EQ(peer->controlSnapshot(), nullptr);  // still version 1

    std::atomic<bool> returned{false};
    std::thread second([&] {
        EXPECT_FALSE(peer.pollControl());
        // Whatever the outcome, it must not predate version 2.
        EXPECT_NE(peer->controlSnapshot(), nullptr);
        returned.store(true, std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(returned.load(std::memory_order_acquire));

    inj.release(hooks::YieldPoint::ControlPreSwap);
    adopter.join();
    second.join();
    EXPECT_EQ(peer->controlPlane().version(), 2u);
}
#endif // BTRACE_ENABLE_TEST_HOOKS

// Pollers on one attachment race the owner's applies (the TSan workout
// for the lock-free poll path); every poller converges on the last
// version, and each version is adopted at most once.
TEST(ControlPage, ConcurrentPollersConvergeOnTheLastVersion)
{
    BTraceConfig cfg = smallConfig();
    cfg.storage = StorageKind::Shm;
    auto owner_e = Session::create(cfg);
    ASSERT_TRUE(owner_e.ok()) << owner_e.status().toString();
    Session owner = std::move(owner_e.value());
    auto peer_e = Session::attachFd(owner.shareFd());
    ASSERT_TRUE(peer_e.ok()) << peer_e.status().toString();
    Session peer = std::move(peer_e.value());

    constexpr int kApplies = 200;
    std::atomic<bool> applying{true};
    std::atomic<uint64_t> adopted{0};
    std::vector<std::thread> pollers;
    for (int i = 0; i < 3; ++i) {
        pollers.emplace_back([&] {
            while (applying.load(std::memory_order_acquire))
                if (peer.pollControl())
                    adopted.fetch_add(1, std::memory_order_relaxed);
        });
    }
    ControlConfig cfgs[2];
    cfgs[0].sampleRate = 0.5;  // cfgs[1] stays defaults
    for (int i = 0; i < kApplies; ++i)
        ASSERT_TRUE(owner.applyControl(cfgs[i % 2]).ok());
    applying.store(false, std::memory_order_release);
    for (std::thread &t : pollers)
        t.join();

    if (peer.pollControl())
        adopted.fetch_add(1, std::memory_order_relaxed);
    EXPECT_EQ(peer->controlPlane().version(), uint64_t(kApplies) + 1);
    EXPECT_FALSE(peer.pollControl());
    EXPECT_LE(adopted.load(), uint64_t(kApplies));
    EXPECT_GE(adopted.load(), 1u);
}

// ---------------------------------------------------------------------------
// Governor

TEST(Governor, PolicyGrowThrottleRestoreShrink)
{
    GovernorOptions opts;
    opts.shrinkIntervals = 2;
    opts.restoreIntervals = 2;
    Governor g(opts);

    GovernorInput in;
    in.activeBlocks = 4;
    in.numBlocks = 8;
    in.ringMinBlocks = 8;
    in.ringMaxBlocks = 16;
    in.sampleRate = 1.0;

    // Loss pressure below the ceiling: grow.
    in.overwrittenDelta = 50;
    in.recordedDelta = 100;
    in.occupancy = 1.0;
    auto d = g.evaluate(in);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].action, GovernorAction::GrowRing);
    EXPECT_EQ(d[0].arg, 16u);

    // Loss pressure at the ceiling: throttle before dropping.
    in.numBlocks = 16;
    d = g.evaluate(in);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].action, GovernorAction::ThrottleSampling);
    EXPECT_DOUBLE_EQ(controlFxToRate(d[0].arg), 0.5);
    in.sampleRate = 0.5;

    // Pressure clears: after restoreIntervals calm intervals the rate
    // comes back.
    in.overwrittenDelta = 0;
    in.occupancy = 0.5;
    EXPECT_TRUE(g.evaluate(in).empty());
    d = g.evaluate(in);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].action, GovernorAction::RestoreSampling);
    EXPECT_DOUBLE_EQ(controlFxToRate(d[0].arg), 1.0);
    in.sampleRate = 1.0;

    // Sustained idleness: shrink toward the floor.
    in.occupancy = 0.01;
    EXPECT_TRUE(g.evaluate(in).empty());
    d = g.evaluate(in);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].action, GovernorAction::ShrinkRing);
    EXPECT_EQ(d[0].arg, 8u);

    // At the floor: idle intervals decide nothing.
    in.numBlocks = 8;
    EXPECT_TRUE(g.evaluate(in).empty());
    EXPECT_TRUE(g.evaluate(in).empty());
    EXPECT_TRUE(g.evaluate(in).empty());
}

// The acceptance scenario, live: an undersized ring under a lagging
// consumer shows loss pressure, the governor grows it, loss recovers;
// sustained idleness then shrinks it back. The leased fast path's
// sharedRmws stays byte-identical to a controls-at-default run for
// the identical pre-actuation workload.
TEST(Governor, GovernorLive)
{
    BTraceConfig cfg = smallConfig(256, 8, 4, 4);
    cfg.maxBlocks = 32;
    cfg.control.ringMinBlocks = 8;
    cfg.control.ringMaxBlocks = 32;

    // The identical leased workload against a controls-at-default
    // tracer of the same geometry: the contract reference.
    const auto leasedWorkload = [](BTrace &bt) {
        uint64_t stamp = 0;
        for (int batch = 0; batch < 40; ++batch) {
            Lease l = bt.lease(uint16_t(batch % 4), 1, 24, 16);
            ASSERT_TRUE(l.ok());
            for (int i = 0; i < 16; ++i) {
                ++stamp;
                if (!bt.shouldRecord(0, 1, stamp))
                    continue;
                WriteTicket t = l.allocate(24);
                if (!t.ok())
                    break;
                writeNormal(t.dst, stamp, l.core(), 1, 0, 24);
                l.confirm(t);
            }
            l.close();
        }
    };

    uint64_t baseline_rmws = 0;
    {
        BTraceConfig ref = smallConfig(256, 8, 4, 4);
        ref.maxBlocks = 32;
        BTrace bare(ref);
        leasedWorkload(bare);
        baseline_rmws = bare.countersSnapshot().sharedRmws;
    }

    auto s = Session::create(cfg);
    ASSERT_TRUE(s.ok()) << s.status().toString();
    BTrace &bt = s.value().tracer();
    // Ring bounds are non-default, so a snapshot is live — and the
    // leased fast path must still cost exactly the same shared RMWs.
    ASSERT_NE(bt.controlSnapshot(), nullptr);
    leasedWorkload(bt);
    EXPECT_EQ(bt.countersSnapshot().sharedRmws, baseline_rmws);

    DaemonOptions dopts;
    dopts.outDir = testing::TempDir() + "/btrace_governor_live";
    auto daemon = ConsumerDaemon::make(std::move(s.value()), dopts);
    ASSERT_TRUE(daemon.ok()) << daemon.status().toString();
    ConsumerDaemon &d = *daemon.value();
    ASSERT_TRUE(d.drainOnce().ok());  // catch the cursor up

    EventJournal journal;
    bt.attachJournal(&journal);
    Governor gov;
    MetricsRegistry registry;
    gov.registerMetrics(registry);

    const auto governOnce = [&](uint64_t overwritten_delta,
                                uint64_t recorded_delta,
                                double occupancy) {
        GovernorInput in;
        in.overwrittenDelta = overwritten_delta;
        in.recordedDelta = recorded_delta;
        in.occupancy = occupancy;
        in.numBlocks = bt.numBlocks();
        in.activeBlocks = bt.config().activeBlocks;
        in.ringMinBlocks = cfg.control.ringMinBlocks;
        in.ringMaxBlocks = cfg.control.ringMaxBlocks;
        in.sampleRate =
            bt.controlPlane().current().sampleRate;
        gov.actuate(bt, gov.evaluate(in));
    };

    // Interval 1: overrun the undersized ring without draining, then
    // drain — the cursor reports the overwritten positions.
    const DaemonStats before = d.stats();
    for (uint64_t s2 = 1; s2 <= 2000; ++s2)
        ASSERT_TRUE(bt.record(uint16_t(s2 % 4), 1, s2, 64));
    ASSERT_TRUE(d.drainOnce().ok());
    const uint64_t overwritten =
        d.stats().overwrittenPositions - before.overwrittenPositions;
    ASSERT_GT(overwritten, 0u) << "undersized ring did not overrun";

    ASSERT_EQ(bt.numBlocks(), 8u);
    governOnce(overwritten, 2000, 1.0);
    EXPECT_EQ(bt.numBlocks(), 16u) << "governor did not grow the ring";
    EXPECT_EQ(gov.tallies().grows, 1u);

    // Interval 2: same offered load into the grown ring, drained
    // eagerly — the loss rate recovers.
    const DaemonStats mid = d.stats();
    for (uint64_t s2 = 10000; s2 <= 10500; ++s2) {
        ASSERT_TRUE(bt.record(uint16_t(s2 % 4), 1, s2, 64));
        if (s2 % 10 == 0) {
            ASSERT_TRUE(d.drainOnce().ok());
        }
    }
    ASSERT_TRUE(d.drainOnce().ok());
    const uint64_t overwritten2 =
        d.stats().overwrittenPositions - mid.overwrittenPositions;
    EXPECT_EQ(overwritten2, 0u) << "loss did not recover after grow";
    governOnce(overwritten2, 500, 0.5);
    EXPECT_EQ(bt.numBlocks(), 16u);

    // Intervals 3..5: sustained idleness shrinks back to the floor.
    governOnce(0, 10, 0.01);
    governOnce(0, 10, 0.01);
    governOnce(0, 10, 0.01);
    EXPECT_EQ(bt.numBlocks(), 8u) << "governor did not shrink";
    EXPECT_EQ(gov.tallies().shrinks, 1u);

    // Every actuation was journaled and is visible in the metrics.
    unsigned journaled = 0;
    for (const JournalRecord &r : journal.snapshot())
        if (r.kind == JournalEventKind::GovernorDecision)
            ++journaled;
    EXPECT_EQ(journaled, 2u);
    bool saw_ring_gauge = false;
    for (const MetricValue &m : registry.collect().metrics)
        if (m.name == "btrace_governor_ring_blocks") {
            saw_ring_gauge = true;
            EXPECT_DOUBLE_EQ(m.value, 8.0);
        }
    EXPECT_TRUE(saw_ring_gauge);

    bt.attachJournal(nullptr);
}

// A grow that tryResize refuses as Busy (a second attachment is live)
// is the ceiling for the rest of the pressure episode: the governor
// throttles instead of proposing the same grow every interval, and
// tries the grow again only after a pressure-free interval.
TEST(Governor, BusyGrowThrottlesInstead)
{
    BTraceConfig cfg = smallConfig();
    cfg.storage = StorageKind::Shm;
    cfg.maxBlocks = 2 * cfg.numBlocks;
    auto owner_e = Session::create(cfg);
    ASSERT_TRUE(owner_e.ok()) << owner_e.status().toString();
    Session owner = std::move(owner_e.value());
    auto peer_e = Session::attachFd(owner.shareFd());
    ASSERT_TRUE(peer_e.ok()) << peer_e.status().toString();
    BTrace &bt = owner.tracer();

    Governor gov;
    const auto govern = [&](uint64_t overwritten_delta) {
        GovernorInput in;
        in.overwrittenDelta = overwritten_delta;
        in.recordedDelta = 100;
        in.occupancy = 1.0;
        in.numBlocks = bt.numBlocks();
        in.activeBlocks = bt.config().activeBlocks;
        in.ringMaxBlocks = cfg.maxBlocks;
        in.sampleRate = bt.controlPlane().current().sampleRate;
        gov.actuate(bt, gov.evaluate(in));
    };

    // K = 4 pressure intervals keep the rate above the floor
    // (1 -> 0.5 -> 0.25 -> 0.125).
    constexpr unsigned kIntervals = 4;
    for (unsigned k = 0; k < kIntervals; ++k)
        govern(50);
    EXPECT_EQ(gov.tallies().failedResizes, 1u);
    EXPECT_EQ(gov.tallies().throttles, kIntervals - 1);
    EXPECT_EQ(bt.numBlocks(), cfg.numBlocks);
    EXPECT_DOUBLE_EQ(bt.controlPlane().current().sampleRate, 0.125);

    // A pressure-free interval ends the episode; the next one asks
    // for the grow again.
    govern(0);
    govern(50);
    EXPECT_EQ(gov.tallies().failedResizes, 2u);
    EXPECT_EQ(gov.tallies().throttles, kIntervals - 1);
}

TEST(Governor, ActuationRefusalIsTalliedNotFatal)
{
    Governor gov;
    BTrace bt(smallConfig());
    // Target outside [A, maxBlocks]: tryResize declines with a Status
    // and the governor tallies the refusal.
    gov.actuate(bt, {{GovernorAction::GrowRing, 1000, "test"}});
    EXPECT_EQ(gov.tallies().failedResizes, 1u);
    EXPECT_EQ(bt.numBlocks(), 32u);

    EXPECT_EQ(bt.tryResize(12).code(), StatusCode::InvalidArgument);
    EXPECT_TRUE(bt.tryResize(16).ok());
    EXPECT_EQ(bt.numBlocks(), 16u);
}

} // namespace
} // namespace btrace
