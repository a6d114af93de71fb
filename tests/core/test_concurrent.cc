/**
 * @file
 * Real-thread stress tests of BTrace: producers racing across cores,
 * oversubscribed cores with threads preempted by the OS scheduler
 * mid-write, concurrent consumers, and combinations. These complement
 * the deterministic replay tests with genuine hardware concurrency.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "core/auditor.h"
#include "core/btrace.h"

#include "inspector.h"

namespace btrace {
namespace {

BTraceConfig
stressConfig(unsigned cores)
{
    BTraceConfig cfg;
    cfg.blockSize = 1024;
    cfg.numBlocks = 128;
    cfg.activeBlocks = 32;
    cfg.cores = cores;
    return cfg;
}

void
checkDumpIntegrity(const Dump &d, uint64_t max_stamp)
{
    std::set<uint64_t> stamps;
    for (const DumpEntry &e : d.entries) {
        ASSERT_GE(e.stamp, 1u);
        ASSERT_LE(e.stamp, max_stamp);
        ASSERT_TRUE(e.payloadOk) << "torn entry at stamp " << e.stamp;
        ASSERT_TRUE(stamps.insert(e.stamp).second)
            << "duplicate stamp " << e.stamp;
    }
}

TEST(Concurrent, OneProducerThreadPerCore)
{
    const unsigned cores = 4;
    BTrace bt(stressConfig(cores));
    std::atomic<uint64_t> stamp{0};
    std::vector<std::thread> workers;
    for (unsigned c = 0; c < cores; ++c) {
        workers.emplace_back([&, c]() {
            for (int i = 0; i < 20000; ++i) {
                const uint64_t s =
                    stamp.fetch_add(1, std::memory_order_relaxed) + 1;
                ASSERT_TRUE(bt.record(uint16_t(c), c, s, 48));
            }
        });
    }
    for (auto &w : workers)
        w.join();

    const Dump d = bt.dump();
    ASSERT_FALSE(d.entries.empty());
    checkDumpIntegrity(d, stamp.load());
    EXPECT_EQ(d.unreadableBlocks, 0u);

    const AuditReport rep = BTraceAuditor(bt).audit();
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(Concurrent, OversubscribedCores)
{
    // 3 threads share each virtual core id: the OS preempts them at
    // arbitrary points, including between allocate and confirm, which
    // exercises out-of-order confirmation and block skipping.
    const unsigned cores = 2;
    BTrace bt(stressConfig(cores));
    std::atomic<uint64_t> stamp{0};
    std::vector<std::thread> workers;
    for (unsigned c = 0; c < cores; ++c) {
        for (int k = 0; k < 3; ++k) {
            workers.emplace_back([&, c, k]() {
                for (int i = 0; i < 8000; ++i) {
                    const uint64_t s =
                        stamp.fetch_add(1, std::memory_order_relaxed) + 1;
                    ASSERT_TRUE(bt.record(uint16_t(c),
                                          uint32_t(c * 10 + k), s, 40));
                }
            });
        }
    }
    for (auto &w : workers)
        w.join();

    const Dump d = bt.dump();
    checkDumpIntegrity(d, stamp.load());
}

TEST(Concurrent, TwoPhaseWritersWithManualDelays)
{
    // Split-phase writers that hold tickets across an explicit yield:
    // a deterministic way to provoke the preempted-writer paths.
    const unsigned cores = 4;
    BTrace bt(stressConfig(cores));
    std::atomic<uint64_t> stamp{0};
    std::vector<std::thread> workers;
    for (unsigned c = 0; c < cores; ++c) {
        workers.emplace_back([&, c]() {
            for (int i = 0; i < 5000; ++i) {
                const uint64_t s =
                    stamp.fetch_add(1, std::memory_order_relaxed) + 1;
                WriteTicket t;
                for (;;) {
                    t = bt.allocate(uint16_t(c), c, 32);
                    if (t.status == AllocStatus::Ok)
                        break;
                    std::this_thread::yield();
                }
                if (i % 7 == 0)
                    std::this_thread::yield();  // hold mid-write
                writeNormal(t.dst, s, uint16_t(c), c, 0, 32);
                bt.confirm(t);
            }
        });
    }
    for (auto &w : workers)
        w.join();

    const Dump d = bt.dump();
    checkDumpIntegrity(d, stamp.load());
    EXPECT_EQ(d.unreadableBlocks, 0u);  // everything confirmed
}

TEST(Concurrent, ConsumerRacesProducers)
{
    const unsigned cores = 4;
    BTrace bt(stressConfig(cores));
    std::atomic<uint64_t> stamp{0};
    std::atomic<bool> stop{false};

    std::vector<std::thread> workers;
    for (unsigned c = 0; c < cores; ++c) {
        workers.emplace_back([&, c]() {
            while (!stop.load(std::memory_order_relaxed)) {
                const uint64_t s =
                    stamp.fetch_add(1, std::memory_order_relaxed) + 1;
                bt.record(uint16_t(c), c, s, 48);
            }
        });
    }

    // Concurrent dumps: every snapshot must be internally consistent
    // even while producers overwrite blocks under the reader.
    for (int round = 0; round < 30; ++round) {
        const Dump d = bt.dump();
        const uint64_t bound =
            stamp.load(std::memory_order_acquire) + cores + 1;
        std::set<uint64_t> stamps;
        for (const DumpEntry &e : d.entries) {
            ASSERT_GE(e.stamp, 1u);
            ASSERT_LE(e.stamp, bound);
            ASSERT_TRUE(e.payloadOk);
            ASSERT_TRUE(stamps.insert(e.stamp).second);
        }
    }
    stop.store(true);
    for (auto &w : workers)
        w.join();
}

TEST(Concurrent, StreamingReaderRacesWritersAndLeases)
{
    // Four writers, half their records through record() and half
    // through leases of 8, race a streaming reader that polls without
    // pause. Every written stamp comes back exactly once, and the
    // reader closes no block. The ring is sized so that nothing is
    // lapped and no block falls 2 x activeBlocks behind the newest;
    // a metadata slot still comes round, so a writer preempted with
    // a reservation open can make an advance skip it (§3.4).
    BTraceConfig cfg;
    cfg.blockSize = 4096;
    cfg.numBlocks = 1024;
    cfg.activeBlocks = 128;
    cfg.cores = 4;
    BTrace bt(cfg);
    const uint64_t half = 2000;
    std::atomic<uint64_t> stamp{0};
    std::atomic<unsigned> running{cfg.cores};

    std::vector<std::thread> workers;
    for (unsigned c = 0; c < cfg.cores; ++c) {
        workers.emplace_back([&, c]() {
            const auto core = static_cast<uint16_t>(c);
            for (uint64_t i = 0; i < half; ++i) {
                const uint64_t s =
                    stamp.fetch_add(1, std::memory_order_relaxed) + 1;
                EXPECT_TRUE(bt.record(core, c, s, 24));
            }
            uint64_t written = 0;
            while (written < half) {
                Lease l = bt.lease(core, c, 24, 8);
                if (!l.ok()) {
                    std::this_thread::yield();
                    continue;
                }
                for (; written < half; ++written) {
                    WriteTicket t = l.allocate(24);
                    if (!t.ok())
                        break;
                    const uint64_t s =
                        stamp.fetch_add(1, std::memory_order_relaxed) + 1;
                    writeNormal(t.dst, s, core, c, 0, 24);
                    l.confirm(t);
                }
            }
            running.fetch_sub(1, std::memory_order_release);
        });
    }

    // The pass after the last writer finished sees every write
    // published, open blocks' tails included.
    DumpCursor cursor;
    Dump d;
    std::vector<uint64_t> got;
    // A skip marker holds no record of this run (nothing laps the
    // ring), so skips are counted apart from loss.
    uint64_t lost = 0, unreadable = 0, skipped = 0;
    for (bool last = false; !last;) {
        last = running.load(std::memory_order_acquire) == 0;
        bt.dumpFrom(cursor, DumpOptions{}, d);
        for (const DumpEntry &e : d.entries) {
            EXPECT_TRUE(e.payloadOk) << "torn entry at stamp " << e.stamp;
            got.push_back(e.stamp);
        }
        lost += d.overwrittenPositions + d.abandonedBlocks;
        unreadable += d.unreadableBlocks;
        skipped += d.skippedBlocks;
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(lost, 0u);
    EXPECT_EQ(unreadable, 0u);
    EXPECT_EQ(skipped, bt.countersSnapshot().skips);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
        << "a stamp was returned twice";
    ASSERT_EQ(got.size(), stamp.load());
    EXPECT_EQ(got.front(), 1u);
    EXPECT_EQ(got.back(), stamp.load());
    EXPECT_EQ(BTraceInspector(bt).spareCloses(), 0u);
}

TEST(Concurrent, ParallelConsumers)
{
    const unsigned cores = 2;
    BTrace bt(stressConfig(cores));
    std::atomic<uint64_t> stamp{0};
    std::atomic<bool> stop{false};

    std::vector<std::thread> workers;
    for (unsigned c = 0; c < cores; ++c) {
        workers.emplace_back([&, c]() {
            while (!stop.load(std::memory_order_relaxed)) {
                const uint64_t s =
                    stamp.fetch_add(1, std::memory_order_relaxed) + 1;
                bt.record(uint16_t(c), c, s, 32);
            }
        });
    }
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&]() {
            for (int i = 0; i < 10; ++i) {
                const Dump d = bt.dump();
                for (const DumpEntry &e : d.entries)
                    ASSERT_TRUE(e.payloadOk);
            }
        });
    }
    for (auto &r : readers)
        r.join();
    stop.store(true);
    for (auto &w : workers)
        w.join();
}

TEST(Concurrent, CountersAreConsistentAfterStress)
{
    const unsigned cores = 4;
    BTrace bt(stressConfig(cores));
    std::atomic<uint64_t> stamp{0};
    std::vector<std::thread> workers;
    for (unsigned c = 0; c < cores; ++c) {
        workers.emplace_back([&, c]() {
            for (int i = 0; i < 10000; ++i) {
                const uint64_t s =
                    stamp.fetch_add(1, std::memory_order_relaxed) + 1;
                ASSERT_TRUE(bt.record(uint16_t(c), c, s, 48));
            }
        });
    }
    for (auto &w : workers)
        w.join();

    const BTraceCounters::Snapshot ctrs = bt.countersSnapshot();
    EXPECT_EQ(ctrs.fastAllocs, stamp.load());
    EXPECT_GT(ctrs.advances, 0u);
    // Total dummy bytes can never exceed what advancement could have
    // sacrificed: all blocks ever opened.
    const uint64_t opened = ctrs.advances + ctrs.skips +
                            ctrs.coreRaces + 8;
    EXPECT_LE(ctrs.dummyBytes, opened * 1024);

    const AuditReport rep = BTraceAuditor(bt).audit();
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(Counters, ShardsSumExactlyUnderConcurrentWriters)
{
    // Every writer bumps counters while the others do: after the join
    // the snapshot must add up exactly, whatever word each bump hit.
    const unsigned cores = 4;
    const uint64_t k = 4000;
    BTrace bt(stressConfig(cores));
    std::atomic<uint64_t> stamp{0};
    std::atomic<uint64_t> grants{0};
    std::vector<std::thread> workers;
    for (unsigned c = 0; c < cores; ++c) {
        workers.emplace_back([&, c]() {
            const auto core = static_cast<uint16_t>(c);
            for (uint64_t i = 0; i < k; ++i) {
                const uint64_t s =
                    stamp.fetch_add(1, std::memory_order_relaxed) + 1;
                ASSERT_TRUE(bt.record(core, c, s, 48));
            }
            uint64_t written = 0;
            while (written < k) {
                Lease l = bt.lease(core, c, 32, 8);
                if (!l.ok()) {
                    std::this_thread::yield();
                    continue;
                }
                grants.fetch_add(1, std::memory_order_relaxed);
                for (; written < k; ++written) {
                    WriteTicket t = l.allocate(32);
                    if (!t.ok())
                        break;
                    const uint64_t s =
                        stamp.fetch_add(1, std::memory_order_relaxed) + 1;
                    writeNormal(t.dst, s, core, c, 0, 32);
                    l.confirm(t);
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();

    const BTraceCounters::Snapshot ctrs = bt.countersSnapshot();
    EXPECT_EQ(ctrs.fastAllocs, cores * k);
    EXPECT_EQ(ctrs.leaseEntries, cores * k);
    EXPECT_EQ(ctrs.leases, grants.load());
    EXPECT_EQ(ctrs.leasedOutstanding, 0u);

    const AuditReport rep = BTraceAuditor(bt).audit();
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

} // namespace
} // namespace btrace
