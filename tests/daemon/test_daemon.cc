/**
 * @file
 * Unit tests for the btraced drain loop (daemon/daemon.h): segment
 * writing and rotation, retention, the final drain on stop, persist
 * mode under concurrent producers, stats accounting (failed appends
 * included), and the shared trace-file codec's torn-tail behavior
 * that crash-robust collection depends on.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "daemon/daemon.h"
#include "obs/export.h"
#include "trace/segment_stats.h"
#include "trace/trace_file.h"

namespace btrace {
namespace {

BTraceConfig
smallConfig(StorageKind storage = StorageKind::Private)
{
    BTraceConfig cfg;
    cfg.blockSize = 256;
    cfg.numBlocks = 64;
    cfg.activeBlocks = 8;
    cfg.cores = 4;
    cfg.storage = storage;
    return cfg;
}

class DaemonTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = testing::TempDir() + "btraced_test_" +
              std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name();
    }

    void
    TearDown() override
    {
        // Best-effort cleanup of the segment directory.
        for (uint64_t i = 0; i < 64; ++i)
            std::remove(daemonSegmentPath(dir, i).c_str());
        ::rmdir(dir.c_str());
    }

    std::string dir;
};

TEST_F(DaemonTest, DrainsIntoSegment)
{
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    Session sess = s.take();
    for (uint64_t st = 1; st <= 100; ++st)
        ASSERT_TRUE(sess->record(0, 1, st, 16));

    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    auto d = ConsumerDaemon::make(std::move(sess), opts);
    ASSERT_TRUE(d.ok()) << d.status().toString();
    ConsumerDaemon &daemon = *d.value();

    auto n = daemon.drainOnce();
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 100u);
    daemon.stop();

    const DaemonStats st = daemon.stats();
    EXPECT_EQ(st.entries, 100u);
    EXPECT_EQ(st.segmentsOpened, 1u);

    auto loaded = readTraceFile(daemonSegmentPath(dir, 0));
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded.value().size(), 100u);
    EXPECT_EQ(loaded.value()[0].stamp, 1u);
}

TEST_F(DaemonTest, SecondDrainSeesOnlyNewEntries)
{
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    Session sess = s.take();

    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    auto d = ConsumerDaemon::make(std::move(sess), opts);
    ASSERT_TRUE(d.ok());
    ConsumerDaemon &daemon = *d.value();

    for (uint64_t st = 1; st <= 50; ++st)
        ASSERT_TRUE(daemon.session()->record(0, 1, st, 16));
    ASSERT_TRUE(daemon.drainOnce().ok());

    for (uint64_t st = 51; st <= 80; ++st)
        ASSERT_TRUE(daemon.session()->record(0, 1, st, 16));
    auto n = daemon.drainOnce();
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 30u);  // incremental, not a re-read

    daemon.stop();
    EXPECT_EQ(daemon.stats().entries, 80u);
}

TEST_F(DaemonTest, CloseOnReadWaitsForAnOpenLease)
{
    // A close-on-read drain that meets a block still held by an open
    // lease must come back to it, not give it up: once the lease
    // publishes, the next drain delivers every entry to a segment.
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok());
    ConsumerDaemon &daemon = *d.value();

    constexpr uint64_t kEntries = 4;
    Lease l = daemon.session()->lease(0, 1, 16, uint32_t(kEntries));
    ASSERT_TRUE(l.ok());
    for (uint64_t st = 1; st <= kEntries; ++st) {
        WriteTicket t = l.allocate(16);
        ASSERT_TRUE(t.ok());
        writeNormal(t.dst, st, 0, 1, 0, 16);
        l.confirm(t);
    }
    auto held = daemon.drainOnce();
    ASSERT_TRUE(held.ok());
    EXPECT_EQ(held.value(), 0u);

    l.close();
    auto n = daemon.drainOnce();
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), kEntries);
    daemon.stop();

    EXPECT_EQ(daemon.stats().entries, kEntries);
    auto loaded = readTraceFile(daemonSegmentPath(dir, 0));
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded.value().size(), kEntries);
}

/** Record @p n 16-byte-payload entries on @p core, stamps from @p first. */
void
recordOn(Session &sess, uint16_t core, uint64_t first, uint64_t n)
{
    for (uint64_t st = first; st < first + n; ++st)
        ASSERT_TRUE(sess->record(core, 2, st, 16));
}

TEST_F(DaemonTest, StopReadsPastALeaseStillOpen)
{
    // The final drain has no later pass to wait for: a lease still
    // open on core 0 costs its own block, never the complete blocks
    // core 1 filled after it.
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok());
    ConsumerDaemon &daemon = *d.value();

    Lease l = daemon.session()->lease(0, 1, 16, 4);
    ASSERT_TRUE(l.ok());
    WriteTicket t = l.allocate(16);
    ASSERT_TRUE(t.ok());
    writeNormal(t.dst, 1000, 0, 1, 0, 16);
    l.confirm(t);

    constexpr uint64_t kCore1 = 30;  // four blocks and a bit
    recordOn(daemon.session(), 1, 1, kCore1);
    daemon.stop();
    l.close();

    EXPECT_EQ(daemon.stats().entries, kCore1);
    EXPECT_EQ(daemon.stats().unreadableBlocks, 1u);
    auto loaded = readTraceFile(daemonSegmentPath(dir, 0));
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded.value().size(), kCore1);
}

TEST_F(DaemonTest, DrainWalksPastABlockStuckFarBehind)
{
    // A writer that dies between its reservation and its confirm
    // leaves a block that never completes. A drain waits for it only
    // near the frontier; once the producers are more than 2 x
    // activeBlocks positions past it, the drain walks on, counts the
    // block, and delivers the blocks after it.
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok());
    ConsumerDaemon &daemon = *d.value();

    WriteTicket held = daemon.session()->allocate(0, 1, 16);
    ASSERT_TRUE(held.ok());

    // Near the frontier the held block is kept for the next drain,
    // uncharged, and the blocks after it land now.
    recordOn(daemon.session(), 1, 1, 10);
    auto near = daemon.drainOnce();
    ASSERT_TRUE(near.ok());
    EXPECT_EQ(near.value(), 10u);
    EXPECT_EQ(daemon.stats().unreadableBlocks, 0u);

    constexpr uint64_t kCore1 = 150;  // ~20 blocks: past 2 x 8
    recordOn(daemon.session(), 1, 11, kCore1 - 10);
    auto far = daemon.drainOnce();
    ASSERT_TRUE(far.ok());
    // The held block's metadata slot never reaches its next round, so
    // each later candidate for the slot is skipped; the drain counts
    // those markers and walks past them.
    EXPECT_EQ(far.value(), kCore1 - 10);
    EXPECT_EQ(daemon.stats().unreadableBlocks, 1u);
    EXPECT_GT(daemon.stats().skippedBlocks, 0u);

    writeNormal(held.dst, 1000, 0, 1, 0, 16);
    daemon.session()->confirm(held);
    daemon.stop();
    EXPECT_EQ(daemon.stats().entries, kCore1);
    EXPECT_EQ(daemon.stats().unreadableBlocks, 1u);
    EXPECT_EQ(daemon.stats().overwrittenPositions, 0u);
}

TEST_F(DaemonTest, DrainLandsRecordsPastASkipWhenProducersGoQuiet)
{
    // A single-entry writer preempted (or killed) between its
    // reservation and its confirm pins its metadata slot; no sweep
    // reclaims it, and the next advance onto the slot writes a skip
    // marker. Once the producers go quiet, a drain — not only stop() —
    // lands every record written past the marker, and counts it.
    for (const bool closeActive : {true, false}) {
        SCOPED_TRACE(closeActive ? "close-on-read" : "streaming");
        auto s = Session::create(smallConfig());
        ASSERT_TRUE(s.ok());
        DaemonOptions opts;
        opts.outDir = dir;
        opts.closeActive = closeActive;
        auto d = ConsumerDaemon::make(s.take(), opts);
        ASSERT_TRUE(d.ok());
        ConsumerDaemon &daemon = *d.value();
        Session &sess = daemon.session();

        WriteTicket held = sess->allocate(0, 1, 16);
        ASSERT_TRUE(held.ok());
        uint64_t n = 0;
        while (sess->countersSnapshot().skips == 0)
            ASSERT_TRUE(sess->record(1, 2, ++n, 16));
        const uint64_t skips = sess->countersSnapshot().skips;

        auto drained = daemon.drainOnce();
        ASSERT_TRUE(drained.ok());
        EXPECT_EQ(drained.value(), n);
        EXPECT_EQ(daemon.stats().entries, n);
        EXPECT_EQ(daemon.stats().skippedBlocks, skips);
        EXPECT_EQ(daemon.stats().unreadableBlocks, 0u);

        // The pinned block is still near the frontier: once its writer
        // confirms, the final drain lands that record too.
        writeNormal(held.dst, 1000, 0, 1, 0, 16);
        sess->confirm(held);
        daemon.stop();
        EXPECT_EQ(daemon.stats().entries, n + 1);
        EXPECT_EQ(daemon.stats().unreadableBlocks, 0u);
        EXPECT_EQ(daemon.stats().skippedBlocks, skips);
    }
}

TEST_F(DaemonTest, RotatesAndAgesOutSegments)
{
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());

    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    // Tiny budget: ~10 records per segment forces many rotations.
    opts.segmentBytes = 10 * sizeof(TraceDiskRecord);
    opts.maxSegments = 2;
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok());
    ConsumerDaemon &daemon = *d.value();

    for (int round = 0; round < 12; ++round) {
        for (uint64_t k = 1; k <= 10; ++k)
            ASSERT_TRUE(daemon.session()->record(
                0, 1, uint64_t(round) * 10 + k, 16));
        ASSERT_TRUE(daemon.drainOnce().ok());
    }
    daemon.stop();

    const DaemonStats st = daemon.stats();
    EXPECT_EQ(st.entries, 120u);
    EXPECT_GT(st.segmentsOpened, 2u);
    EXPECT_GT(st.segmentsDeleted, 0u);
    // Retention: at most maxSegments finished segments plus the open
    // one survive on disk.
    uint64_t onDisk = 0;
    for (uint64_t i = 0; i < st.segmentsOpened; ++i) {
        struct stat sb;
        if (::stat(daemonSegmentPath(dir, i).c_str(), &sb) == 0)
            ++onDisk;
    }
    EXPECT_LE(onDisk, opts.maxSegments + 1);

    // Every surviving segment decodes, and the newest one holds the
    // newest stamps.
    auto last = readTraceFile(
        daemonSegmentPath(dir, st.segmentsOpened - 1));
    ASSERT_TRUE(last.ok()) << last.status().toString();
    ASSERT_FALSE(last.value().empty());
    EXPECT_EQ(last.value().back().stamp, 120u);
}

TEST_F(DaemonTest, StopRunsFinalCloseActiveDrain)
{
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());

    DaemonOptions opts;
    opts.outDir = dir;
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok());
    ConsumerDaemon &daemon = *d.value();

    // Entries sit in open blocks; no explicit drain happened.
    for (uint64_t st = 1; st <= 25; ++st)
        ASSERT_TRUE(daemon.session()->record(0, 1, st, 16));
    daemon.stop();
    // Idempotent: a second stop neither drains nor rewrites anything.
    daemon.stop();
    EXPECT_EQ(daemon.stats().drains, 1u);
    EXPECT_EQ(daemon.stats().entries, 25u);

    auto loaded = readTraceFile(daemonSegmentPath(dir, 0));
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().size(), 25u);
}

TEST_F(DaemonTest, StreamingDrainsOpenBlockPrefix)
{
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = false;
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok());
    ConsumerDaemon &daemon = *d.value();
    Session &sess = daemon.session();

    // Two writers leave their blocks partly filled; a streaming drain
    // takes their records without closing either block.
    for (uint64_t st = 1; st <= 4; ++st)
        ASSERT_TRUE(sess->record(0, 5, st, 16));
    for (uint64_t st = 5; st <= 7; ++st)
        ASSERT_TRUE(sess->record(1, 6, st, 16));
    auto n = daemon.drainOnce();
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 7u);
    EXPECT_EQ(sess->countersSnapshot().closes, 0u);

    // stop()'s final drain adds the records written since, and none
    // of the drained ones again.
    for (uint64_t st = 8; st <= 10; ++st)
        ASSERT_TRUE(sess->record(0, 5, st, 16));
    daemon.stop();
    const DaemonStats ds = daemon.stats();
    EXPECT_EQ(ds.entries, 10u);
    EXPECT_EQ(ds.unreadableBlocks, 0u);
    const auto tallies = daemon.producerTallies();
    ASSERT_EQ(tallies.size(), 2u);
    EXPECT_EQ(tallies.at(5).records, 7u);
    EXPECT_EQ(tallies.at(6).records, 3u);

    auto loaded = readTraceFile(daemonSegmentPath(dir, 0));
    ASSERT_TRUE(loaded.ok());
    std::multiset<uint64_t> stamps;
    for (const DumpEntry &e : loaded.value())
        stamps.insert(e.stamp);
    std::multiset<uint64_t> want;
    for (uint64_t st = 1; st <= 10; ++st)
        want.insert(st);
    EXPECT_EQ(stamps, want);

    SegmentAggregator agg;
    ASSERT_TRUE(agg.addAll(dir).ok());
    EXPECT_EQ(agg.stats().records, ds.entries);
    EXPECT_EQ(agg.stats().payloadBytes, ds.payloadBytes);
    for (const auto &kv : tallies)
        EXPECT_EQ(agg.stats().producers.at(kv.first).records,
                  kv.second.records);
}

TEST_F(DaemonTest, BackgroundThreadDrainsAndSweeps)
{
    auto s = Session::create(smallConfig(StorageKind::Shm));
    ASSERT_TRUE(s.ok());

    DaemonOptions opts;
    opts.outDir = dir;
    opts.drainIntervalSec = 0.001;
    opts.sweepEveryNDrains = 2;
    opts.closeActive = true;
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok());
    ConsumerDaemon &daemon = *d.value();

    daemon.start();
    for (uint64_t st = 1; st <= 200; ++st)
        ASSERT_TRUE(daemon.session()->record(0, 1, st, 16));
    // Let the loop take a few passes, then stop (joins + final drain).
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    daemon.stop();

    const DaemonStats st = daemon.stats();
    EXPECT_GT(st.drains, 1u);
    EXPECT_GT(st.sweeps, 0u);
    EXPECT_EQ(st.entries, 200u);
    EXPECT_EQ(st.reclaimedLeases, 0u);  // nobody died
}

// Persist mode (§2.1): a background drain keeps the segments growing
// past what the buffer holds while producers write.
class PersisterTest : public DaemonTest
{
  protected:
    /** Start a 0.5 ms background drain that never ages out segments. */
    void
    startPersisting()
    {
        auto s = Session::create(smallConfig());
        ASSERT_TRUE(s.ok());
        DaemonOptions opts;
        opts.outDir = dir;
        opts.drainIntervalSec = 0.0005;
        opts.maxSegments = 0;
        auto d = ConsumerDaemon::make(s.take(), opts);
        ASSERT_TRUE(d.ok());
        daemon = d.take();
        daemon->start();
    }

    /**
     * Stop the drain and check every persisted record: one per entry
     * the daemon counted, each with an intact payload, a stamp in
     * [1, maxStamp] and no stamp twice. Returns the persisted bytes.
     */
    uint64_t
    stopAndCheck(uint64_t maxStamp)
    {
        daemon->stop();
        const DaemonStats ds = daemon->stats();
        uint64_t records = 0;
        uint64_t bytes = 0;
        std::set<uint64_t> stamps;
        for (uint64_t i = 0; i < ds.segmentsOpened; ++i) {
            auto seg = readTraceFile(daemonSegmentPath(dir, i));
            EXPECT_TRUE(seg.ok()) << seg.status().toString();
            if (!seg.ok())
                continue;
            for (const DumpEntry &e : seg.value()) {
                EXPECT_TRUE(e.payloadOk) << e.stamp;
                EXPECT_GE(e.stamp, 1u);
                EXPECT_LE(e.stamp, maxStamp);
                EXPECT_TRUE(stamps.insert(e.stamp).second) << e.stamp;
                bytes += e.size;
                ++records;
            }
        }
        EXPECT_EQ(records, ds.entries);
        return bytes;
    }

    std::unique_ptr<ConsumerDaemon> daemon;
};

TEST_F(PersisterTest, CapturesMoreThanBufferCapacity)
{
    // The whole point of persist mode: the segments outlive buffer
    // wraps.
    ASSERT_NO_FATAL_FAILURE(startPersisting());
    BTrace &bt = daemon->session().tracer();
    constexpr uint64_t kTotal = 40000;
    for (uint64_t st = 1; st <= kTotal; ++st) {
        ASSERT_TRUE(bt.record(uint16_t(st % 2), 1, st, 16));
        if (st % 200 == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(stopAndCheck(kTotal), 10 * bt.capacityBytes());
}

TEST_F(PersisterTest, ConcurrentProducersWhilePersisting)
{
    // Two producers write concurrently with the drain; the segments
    // still keep far more than the buffer holds.
    ASSERT_NO_FATAL_FAILURE(startPersisting());
    BTrace &bt = daemon->session().tracer();
    std::atomic<uint64_t> stamp{0};
    std::vector<std::thread> producers;
    for (uint16_t c = 0; c < 2; ++c) {
        producers.emplace_back([&, c]() {
            for (int i = 1; i <= 20000; ++i) {
                const uint64_t st =
                    stamp.fetch_add(1, std::memory_order_relaxed) + 1;
                bt.record(c, c, st, 16);
                if (i % 100 == 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
            }
        });
    }
    for (std::thread &p : producers)
        p.join();
    EXPECT_GT(stopAndCheck(stamp.load()), 10 * bt.capacityBytes());
}

TEST_F(DaemonTest, FailedAppendIsCutOffAndCounted)
{
    // A segment append that stops short (ENOSPC, EFBIG) must not leave
    // a partial record behind: every later record would decode at a
    // shifted offset. The pass's records are lost, and counted.
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok());
    ConsumerDaemon &daemon = *d.value();
    const std::string path = daemonSegmentPath(dir, 0);

    recordOn(daemon.session(), 0, 1, 10);
    auto first = daemon.drainOnce();
    ASSERT_TRUE(first.ok());
    ASSERT_EQ(first.value(), 10u);

    // A file-size limit 10 bytes past the segment's end: the next
    // append writes 10 bytes and stops short.
    struct stat sb;
    ASSERT_EQ(::stat(path.c_str(), &sb), 0);
    struct rlimit saved;
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    struct rlimit tight = saved;
    tight.rlim_cur = rlim_t(sb.st_size) + 10;
    recordOn(daemon.session(), 0, 11, 10);
    const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    const bool limited = ::setrlimit(RLIMIT_FSIZE, &tight) == 0;
    auto failed = daemon.drainOnce();
    ::setrlimit(RLIMIT_FSIZE, &saved);
    std::signal(SIGXFSZ, old_handler);
    ASSERT_TRUE(limited);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::IoError);

    recordOn(daemon.session(), 0, 21, 10);
    auto third = daemon.drainOnce();
    ASSERT_TRUE(third.ok()) << third.status().toString();
    EXPECT_EQ(third.value(), 10u);
    daemon.stop();

    const DaemonStats ds = daemon.stats();
    EXPECT_EQ(ds.entries, 20u);
    EXPECT_EQ(ds.unwrittenRecords, 10u);
    MetricsRegistry registry;
    daemon.registerMetrics(registry);
    bool found = false;
    for (const MetricValue &m : registry.collect().metrics)
        if (m.name == "btraced_unwritten_records_total") {
            found = true;
            EXPECT_DOUBLE_EQ(m.value, 10.0);
        }
    EXPECT_TRUE(found);

    // Every decoded record is one of the passes that landed.
    auto seg = readSegment(path, /*strict=*/true);
    ASSERT_TRUE(seg.ok()) << seg.status().toString();
    EXPECT_EQ(seg.value().header.recordCount, 20u);
    std::vector<uint64_t> got;
    for (const DumpEntry &e : seg.value().entries) {
        EXPECT_TRUE(e.payloadOk) << e.stamp;
        EXPECT_EQ(e.size, 40u) << e.stamp;
        got.push_back(e.stamp);
    }
    std::vector<uint64_t> want;
    for (uint64_t st = 1; st <= 30; ++st)
        if (st <= 10 || st > 20)
            want.push_back(st);
    EXPECT_EQ(got, want);
}

TEST_F(DaemonTest, DrainAfterStopFails)
{
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    DaemonOptions opts;
    opts.outDir = dir;
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok());
    d.value()->stop();
    auto n = d.value()->drainOnce();
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), StatusCode::InvalidArgument);
}

TEST_F(DaemonTest, MakeRejectsInvalidSession)
{
    DaemonOptions opts;
    opts.outDir = dir;
    auto d = ConsumerDaemon::make(Session(), opts);
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), StatusCode::InvalidArgument);
}

TEST_F(DaemonTest, MakeReportsUnusableOutDir)
{
    // A regular file where the directory should go.
    const std::string clash = dir;
    {
        FILE *f = std::fopen(clash.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fclose(f);
    }
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    DaemonOptions opts;
    opts.outDir = clash + "/sub";
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), StatusCode::IoError);
    std::remove(clash.c_str());
}

TEST_F(DaemonTest, MakeCreatesMissingParents)
{
    // Two missing components: the one-mkdir fast path fails with
    // ENOENT and the walk creates both.
    const std::string nested = dir + "/a/b";
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    DaemonOptions opts;
    opts.outDir = nested;
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok()) << d.status().toString();
    d.value()->stop();
    struct stat sb;
    EXPECT_EQ(::stat(daemonSegmentPath(nested, 0).c_str(), &sb), 0);
    std::remove(daemonSegmentPath(nested, 0).c_str());
    ::rmdir(nested.c_str());
    ::rmdir((dir + "/a").c_str());
}

TEST_F(DaemonTest, SegmentHeaderV2CarriesProvenance)
{
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok());
    ConsumerDaemon &daemon = *d.value();

    for (uint64_t st = 1; st <= 40; ++st)
        ASSERT_TRUE(daemon.session()->record(0, 7, st, 16,
                                             uint16_t(st % 3)));
    ASSERT_TRUE(daemon.drainOnce().ok());
    daemon.stop();

    auto seg = readSegment(daemonSegmentPath(dir, 0), true);
    ASSERT_TRUE(seg.ok()) << seg.status().toString();
    const SegmentHeaderV2 &h = seg.value().header;
    EXPECT_EQ(seg.value().version, 2u);
    EXPECT_EQ(h.writerPid, uint64_t(::getpid()));
    EXPECT_EQ(h.recordCount, 40u);
    // DumpEntry::size is the full on-ring event (payload + header).
    ASSERT_FALSE(seg.value().entries.empty());
    EXPECT_EQ(h.payloadBytes,
              40u * seg.value().entries.front().size);
    EXPECT_EQ(h.minStamp, 1u);
    EXPECT_EQ(h.maxStamp, 40u);
    EXPECT_NE(h.firstDrainUnixNs, 0u);
    EXPECT_GE(h.lastDrainUnixNs, h.firstDrainUnixNs);
    EXPECT_NE(h.flags & SegmentHeaderV2::kCleanClose, 0u);
    // Stamps 1..40 over categories stamp%3: 13 zeros, 14 ones, 13 twos.
    EXPECT_EQ(h.categoryRecords[0], 13u);
    EXPECT_EQ(h.categoryRecords[1], 14u);
    EXPECT_EQ(h.categoryRecords[2], 13u);
    // The declared totals reconcile exactly with the scan.
    EXPECT_EQ(h.recordCount, seg.value().entries.size());
}

// The drain encodes and accounts each record in one walk. What lands
// on disk must be exactly what the codec makes of the same entries:
// each record TraceDiskRecord::fromEntry of its entry, byte for byte,
// and the header's tallies a noteEntry fold of them.
TEST_F(DaemonTest, DrainedSegmentMatchesCodecOfTheSameEntries)
{
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok());
    ConsumerDaemon &daemon = *d.value();
    BTrace &bt = daemon.session().tracer();

    // Several writers per core (so tallies see runs), wall-clock and
    // logical stamps, categories past the 16 per-category slots.
    const uint64_t wall = wallClockNs() - 1'000'000ull;
    for (uint64_t k = 0; k < 60; ++k) {
        const auto core = uint16_t(k % 3);
        const auto thread = uint32_t(10 * core + (k / 7) % 2 + 1);
        const uint64_t stamp = k % 2 ? wall + k : k + 1;
        ASSERT_TRUE(bt.record(core, thread, stamp, uint32_t(k % 40),
                              uint16_t(k % 20)));
    }
    const Dump want = bt.dump();  // the same blocks, read in place
    ASSERT_EQ(want.entries.size(), 60u);
    ASSERT_TRUE(daemon.drainOnce().ok());
    daemon.stop();
    EXPECT_EQ(daemon.stats().entries, 60u);

    const std::string path = daemonSegmentPath(dir, 0);
    std::ifstream in(path, std::ios::binary);
    in.seekg(sizeof(uint64_t) + sizeof(SegmentHeaderV2));
    SegmentHeaderV2 fold;
    for (const DumpEntry &e : want.entries) {
        const TraceDiskRecord expect = TraceDiskRecord::fromEntry(e);
        TraceDiskRecord got;
        ASSERT_TRUE(in.read(reinterpret_cast<char *>(&got), sizeof(got)));
        EXPECT_EQ(std::memcmp(&got, &expect, sizeof(got)), 0)
            << "record of stamp " << e.stamp;
        fold.noteEntry(e);
    }
    EXPECT_FALSE(in.read(reinterpret_cast<char *>(&fold), 1));

    auto seg = readSegment(path, true);
    ASSERT_TRUE(seg.ok()) << seg.status().toString();
    const SegmentHeaderV2 &h = seg.value().header;
    EXPECT_EQ(h.recordCount, fold.recordCount);
    EXPECT_EQ(h.payloadBytes, fold.payloadBytes);
    EXPECT_EQ(h.minStamp, fold.minStamp);
    EXPECT_EQ(h.maxStamp, fold.maxStamp);
    for (std::size_t c = 0; c < kSegmentCategorySlots; ++c) {
        EXPECT_EQ(h.categoryRecords[c], fold.categoryRecords[c]) << c;
        EXPECT_EQ(h.categoryBytes[c], fold.categoryBytes[c]) << c;
    }
    EXPECT_EQ(h.otherCategoryRecords, fold.otherCategoryRecords);
    EXPECT_EQ(h.otherCategoryBytes, fold.otherCategoryBytes);
    EXPECT_GT(fold.otherCategoryRecords, 0u);
}

// Positions below activeBlocks are the synthetic round 0, which no
// advancement hands out. A snapshot or a drain of a fresh shm arena
// must not read them: every first-word read would fault in (and, on
// shmem, allocate) a page of a block that was never written.
TEST_F(DaemonTest, FreshShmArenaStaysUnresidentThroughDumpAndStop)
{
    BTraceConfig cfg = smallConfig(StorageKind::Shm);
    cfg.blockSize = 4096;
    cfg.numBlocks = 256;
    cfg.activeBlocks = 64;
    auto s = Session::create(cfg);
    ASSERT_TRUE(s.ok()) << s.status().toString();
    Session owner = s.take();
    ASSERT_EQ(owner->residentBytes(), 0u);

    EXPECT_TRUE(owner->dump().entries.empty());
    EXPECT_EQ(owner->residentBytes(), 0u);

    auto att = Session::attachFd(owner.shareFd());
    ASSERT_TRUE(att.ok()) << att.status().toString();
    DaemonOptions opts;
    opts.outDir = dir;
    auto d = ConsumerDaemon::make(att.take(), opts);
    ASSERT_TRUE(d.ok()) << d.status().toString();
    d.value()->stop();
    EXPECT_EQ(d.value()->stats().entries, 0u);
    EXPECT_EQ(owner->residentBytes(), 0u);
}

TEST_F(DaemonTest, RotationFinalizesEveryHeader)
{
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    opts.segmentBytes = 10 * sizeof(TraceDiskRecord);
    opts.maxSegments = 0;  // keep everything for the scan
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok());
    ConsumerDaemon &daemon = *d.value();

    for (int round = 0; round < 5; ++round) {
        for (uint64_t k = 1; k <= 10; ++k)
            ASSERT_TRUE(daemon.session()->record(
                0, 1, uint64_t(round) * 10 + k, 16));
        ASSERT_TRUE(daemon.drainOnce().ok());
    }
    daemon.stop();

    SegmentAggregator agg;
    ASSERT_TRUE(agg.addAll(dir).ok());
    const SegmentDirStats &st = agg.stats();
    EXPECT_EQ(st.records, 50u);
    EXPECT_EQ(st.v2Segments, st.segmentsScanned);
    EXPECT_EQ(st.dirtySegments, 0u);  // every header finalized
    EXPECT_EQ(st.declaredRecords, 50u);
    EXPECT_FALSE(st.headerScanMismatch());
    EXPECT_EQ(st.rotationGaps, 0u);
}

/** The whole content of @p path ("" when it cannot be read). */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Rotation indices of the segment files in @p dir, ascending. */
std::vector<uint64_t>
segmentIndices(const std::string &dir)
{
    std::vector<uint64_t> out;
    auto files = listSegmentFiles(dir);
    if (files.ok())
        for (const SegmentFile &f : files.value())
            out.push_back(f.index);
    return out;
}

/** One daemon run of @p drains passes of @p perDrain records each. */
void
runDaemon(const DaemonOptions &opts, int drains, uint64_t perDrain,
          uint64_t firstStamp, std::string *lastPath = nullptr)
{
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok()) << d.status().toString();
    ConsumerDaemon &daemon = *d.value();
    for (int k = 0; k < drains; ++k) {
        recordOn(daemon.session(), 0,
                 firstStamp + uint64_t(k) * perDrain, perDrain);
        ASSERT_TRUE(daemon.drainOnce().ok());
    }
    if (lastPath != nullptr)
        *lastPath = daemon.currentSegmentPath();
    daemon.stop();
    EXPECT_EQ(daemon.stats().entries, uint64_t(drains) * perDrain);
}

// A restarted daemon resumes its directory (DESIGN.md §11): it opens
// the index after the highest one on disk and never truncates what an
// earlier run left, which is the pre-incident trace.
TEST_F(DaemonTest, RestartKeepsPreviousSegments)
{
    constexpr uint64_t kRunA = 100, kRunB = 30;
    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    opts.segmentBytes = 40 * sizeof(TraceDiskRecord);  // run A rotates
    opts.maxSegments = 0;

    std::string lastPathA;
    ASSERT_NO_FATAL_FAILURE(runDaemon(opts, 4, kRunA / 4, 1, &lastPathA));
    const std::vector<uint64_t> runA = segmentIndices(dir);
    ASSERT_GE(runA.size(), 2u);
    EXPECT_EQ(lastPathA, daemonSegmentPath(dir, runA.back()));
    std::map<std::string, std::string> copyA;
    for (const uint64_t i : runA)
        copyA[daemonSegmentPath(dir, i)] =
            fileBytes(daemonSegmentPath(dir, i));

    {
        auto s = Session::create(smallConfig());
        ASSERT_TRUE(s.ok());
        auto d = ConsumerDaemon::make(s.take(), opts);
        ASSERT_TRUE(d.ok()) << d.status().toString();
        ConsumerDaemon &daemon = *d.value();
        EXPECT_EQ(daemon.currentSegmentPath(),
                  daemonSegmentPath(dir, runA.back() + 1));
        recordOn(daemon.session(), 0, 1001, kRunB);
        ASSERT_TRUE(daemon.drainOnce().ok());
        daemon.stop();
        EXPECT_EQ(daemon.stats().entries, kRunB);
    }

    for (const auto &[path, bytes] : copyA)
        EXPECT_TRUE(fileBytes(path) == bytes) << path << " changed";
    SegmentAggregator agg;
    ASSERT_TRUE(agg.addAll(dir).ok());
    const SegmentDirStats &st = agg.stats();
    EXPECT_EQ(st.segmentsScanned, runA.size() + 1);
    EXPECT_EQ(st.records, kRunA + kRunB);
    EXPECT_EQ(st.declaredRecords, kRunA + kRunB);
    EXPECT_EQ(st.dirtySegments, 0u);
    EXPECT_EQ(st.rotationGaps, 0u);
    EXPECT_EQ(st.missingIndices, 0u);
}

// maxSegments bounds the directory, not one run: a restarted daemon
// counts the segments it found on disk and trims them oldest first,
// at rotation only.
TEST_F(DaemonTest, RetentionSpansRuns)
{
    constexpr uint64_t kSeeded = 3;
    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    opts.segmentBytes = 10 * sizeof(TraceDiskRecord);
    opts.maxSegments = 0;
    ASSERT_NO_FATAL_FAILURE(runDaemon(opts, int(kSeeded), 10, 1));
    ASSERT_EQ(segmentIndices(dir), (std::vector<uint64_t>{0, 1, 2}));

    opts.maxSegments = 2;
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok()) << d.status().toString();
    ConsumerDaemon &daemon = *d.value();
    // Start-up deletes nothing, even over the cap.
    EXPECT_EQ(segmentIndices(dir), (std::vector<uint64_t>{0, 1, 2, 3}));

    for (uint64_t round = 0; round < 5; ++round) {
        const uint64_t opened = daemon.stats().segmentsOpened;
        recordOn(daemon.session(), 0, 100 + round * 10, 10);
        ASSERT_TRUE(daemon.drainOnce().ok());
        if (daemon.stats().segmentsOpened == opened)
            continue;
        // After a rotation: the open segment and the maxSegments
        // finished ones just below it, whichever run wrote them.
        const uint64_t open = kSeeded + daemon.stats().segmentsOpened - 1;
        EXPECT_EQ(daemon.currentSegmentPath(),
                  daemonSegmentPath(dir, open));
        EXPECT_EQ(segmentIndices(dir),
                  (std::vector<uint64_t>{open - 2, open - 1, open}))
            << "round " << round;
    }
    daemon.stop();
    const DaemonStats ds = daemon.stats();
    EXPECT_EQ(ds.segmentsOpened, 5u);
    EXPECT_EQ(ds.segmentsDeleted, kSeeded + 5 - 1 - opts.maxSegments);
}

// A segment name that appears after the daemon listed its directory
// (another writer, an operator's copy) is skipped, never truncated.
TEST_F(DaemonTest, TakenSegmentNameIsSkipped)
{
    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    opts.segmentBytes = 10 * sizeof(TraceDiskRecord);
    opts.maxSegments = 0;
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok()) << d.status().toString();
    ConsumerDaemon &daemon = *d.value();
    ASSERT_EQ(daemon.currentSegmentPath(), daemonSegmentPath(dir, 0));

    const std::string taken = daemonSegmentPath(dir, 1);
    const std::string content = "not this daemon's segment\n";
    std::ofstream(taken, std::ios::binary) << content;

    recordOn(daemon.session(), 0, 1, 10);
    ASSERT_TRUE(daemon.drainOnce().ok());
    recordOn(daemon.session(), 0, 11, 10);
    ASSERT_TRUE(daemon.drainOnce().ok());  // rotates past the taken name
    EXPECT_EQ(daemon.currentSegmentPath(), daemonSegmentPath(dir, 2));
    daemon.stop();

    EXPECT_TRUE(fileBytes(taken) == content) << taken << " changed";
    EXPECT_EQ(daemon.stats().segmentsOpened, 2u);
    auto second = readTraceFile(daemonSegmentPath(dir, 2));
    ASSERT_TRUE(second.ok()) << second.status().toString();
    ASSERT_EQ(second.value().size(), 10u);
    EXPECT_EQ(second.value().front().stamp, 11u);
}

TEST_F(DaemonTest, SegmentDirReconcilesWithDaemonStats)
{
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok());
    ConsumerDaemon &daemon = *d.value();

    for (uint64_t st = 1; st <= 60; ++st)
        ASSERT_TRUE(
            daemon.session()->record(0, st % 2 ? 5 : 6, st, 24));
    ASSERT_TRUE(daemon.drainOnce().ok());
    daemon.stop();
    const DaemonStats ds = daemon.stats();

    SegmentAggregator agg;
    ASSERT_TRUE(agg.addAll(dir).ok());
    const SegmentDirStats &st = agg.stats();
    // No retention ran, so offline totals equal the live counters.
    EXPECT_EQ(st.records, ds.entries);
    EXPECT_EQ(st.payloadBytes, ds.payloadBytes);
    EXPECT_EQ(st.overwrittenPositions, ds.overwrittenPositions);
    EXPECT_EQ(st.skippedBlocks, ds.skippedBlocks);

    const auto tallies = daemon.producerTallies();
    ASSERT_EQ(tallies.size(), st.producers.size());
    for (const auto &kv : tallies) {
        const auto it = st.producers.find(kv.first);
        ASSERT_NE(it, st.producers.end());
        EXPECT_EQ(it->second.records, kv.second.records);
        EXPECT_EQ(it->second.payloadBytes, kv.second.payloadBytes);
    }
}

TEST_F(DaemonTest, DrainLagSampledForWallClockStamps)
{
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok());
    ConsumerDaemon &daemon = *d.value();

    // 10 wall-clock-stamped records and 5 logical ones.
    const uint64_t base = wallClockNs() - 1'000'000ull;  // 1 ms ago
    for (uint64_t k = 0; k < 10; ++k)
        ASSERT_TRUE(
            daemon.session()->record(0, 1, base + k * 1000, 16));
    for (uint64_t st = 1; st <= 5; ++st)
        ASSERT_TRUE(daemon.session()->record(0, 1, st, 16));
    ASSERT_TRUE(daemon.drainOnce().ok());
    daemon.stop();

    const DaemonStats ds = daemon.stats();
    EXPECT_EQ(ds.lagSampledRecords, 10u);
    EXPECT_EQ(ds.lagUnstampedRecords, 5u);
    EXPECT_EQ(daemon.drainLagHistogram().count(), 10u);
    // Stamps were ~1 ms in the past, so lag is at least that.
    const HistogramSnapshot snap = daemon.drainLagHistogram().snapshot();
    EXPECT_GE(snap.quantile(0.5), 900'000u);
    EXPECT_GE(daemon.lastDrainLagNs(), 900'000u);
    EXPECT_LT(daemon.lastDrainLagNs(), 60'000'000'000ull);
}

TEST_F(DaemonTest, FutureStampedRecordsClampedOutOfLagHistogram)
{
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok());
    ConsumerDaemon &daemon = *d.value();

    // 4 records stamped 10 s in the future (a wall-clock step-back
    // between record and drain looks exactly like this) and 6 sane
    // ones from 1 ms in the past.
    const uint64_t future = wallClockNs() + 10'000'000'000ull;
    for (uint64_t k = 0; k < 4; ++k)
        ASSERT_TRUE(
            daemon.session()->record(0, 1, future + k * 1000, 16));
    const uint64_t base = wallClockNs() - 1'000'000ull;
    for (uint64_t k = 0; k < 6; ++k)
        ASSERT_TRUE(
            daemon.session()->record(0, 1, base + k * 1000, 16));
    ASSERT_TRUE(daemon.drainOnce().ok());
    daemon.stop();

    // The clamped records never reach the histogram or the sampled
    // tally; they surface in their own counter instead.
    const DaemonStats ds = daemon.stats();
    EXPECT_EQ(ds.drainLagClamped, 4u);
    EXPECT_EQ(ds.lagSampledRecords, 6u);
    EXPECT_EQ(ds.lagUnstampedRecords, 0u);
    EXPECT_EQ(daemon.drainLagHistogram().count(), 6u);
    const HistogramSnapshot snap = daemon.drainLagHistogram().snapshot();
    EXPECT_GE(snap.quantile(0.5), 900'000u);
    // The newest stamp is in the future, so the freshness gauge
    // clamps to zero rather than going negative.
    EXPECT_EQ(daemon.lastDrainLagNs(), 0u);

    MetricsRegistry registry;
    daemon.registerMetrics(registry);
    const auto collected = registry.collect();
    bool found = false;
    for (const MetricValue &m : collected.metrics)
        if (m.name == "btraced_drain_lag_clamped_total") {
            found = true;
            EXPECT_DOUBLE_EQ(m.value, 4.0);
        }
    EXPECT_TRUE(found);
}

TEST_F(DaemonTest, PerProducerCountersExported)
{
    auto s = Session::create(smallConfig());
    ASSERT_TRUE(s.ok());
    DaemonOptions opts;
    opts.outDir = dir;
    opts.closeActive = true;
    auto d = ConsumerDaemon::make(s.take(), opts);
    ASSERT_TRUE(d.ok());
    ConsumerDaemon &daemon = *d.value();

    // Producer 5 drained before registerMetrics, producer 6 after —
    // both must end up as labeled series.
    for (uint64_t st = 1; st <= 10; ++st)
        ASSERT_TRUE(daemon.session()->record(0, 5, st, 16));
    ASSERT_TRUE(daemon.drainOnce().ok());

    MetricsRegistry registry;
    daemon.registerMetrics(registry);

    for (uint64_t st = 11; st <= 14; ++st)
        ASSERT_TRUE(daemon.session()->record(0, 6, st, 16));
    ASSERT_TRUE(daemon.drainOnce().ok());
    daemon.stop();

    const auto collected = registry.collect();
    double rec5 = -1, rec6 = -1, bytes6 = -1, seen = -1;
    for (const MetricValue &m : collected.metrics) {
        const std::string key = seriesKey(m.name, m.labels);
        if (key == "btraced_producer_records_total{producer=\"5\"}")
            rec5 = m.value;
        if (key == "btraced_producer_records_total{producer=\"6\"}")
            rec6 = m.value;
        if (key == "btraced_producer_bytes_total{producer=\"6\"}")
            bytes6 = m.value;
        if (key == "btraced_producers_seen")
            seen = m.value;
    }
    EXPECT_EQ(rec5, 10.0);
    EXPECT_EQ(rec6, 4.0);
    // 4 records; DumpEntry::size = payload 16 + 24-byte event header.
    EXPECT_EQ(bytes6, 4.0 * 40.0);
    EXPECT_EQ(seen, 2.0);

    // The Prometheus rendering announces each family exactly once.
    const std::string prom =
        renderPrometheus(collected, {{"daemon", "btraced"}});
    const std::string type =
        "# TYPE btraced_producer_records_total counter";
    const auto first = prom.find(type);
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(prom.find(type, first + 1), std::string::npos);
    EXPECT_NE(prom.find("btraced_producer_records_total{daemon="
                        "\"btraced\",producer=\"5\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE btraced_drain_lag_ns histogram"),
              std::string::npos);
}

// The daemon's bookkeeping must ride the consumer side only: draining
// through ConsumerDaemon (v2 headers, lag histogram, per-producer
// tallies) must leave the producer fast path's shared-RMW count
// byte-identical to draining the same workload with a raw dumpFrom —
// the same contract bar the control plane, journal and profiler meet.
TEST_F(DaemonTest, StatsObsContractSharedRmwsUnchanged)
{
    uint64_t rmws[2] = {0, 0};
    const auto workload = [](Session &sess) {
        for (int round = 0; round < 4; ++round) {
            Lease l = sess->lease(0, 9, 16, 32);
            ASSERT_TRUE(l.ok());
            for (int k = 0; k < 20; ++k) {
                WriteTicket t = l.allocate(16);
                if (!t.ok())
                    break;
                writeNormal(t.dst,
                            uint64_t(round) * 20 + uint64_t(k) + 1, 0,
                            9, 0, 16);
                l.confirm(t);
            }
            l.close();
        }
    };

    for (const bool viaDaemon : {false, true}) {
        auto s = Session::create(smallConfig());
        ASSERT_TRUE(s.ok());
        if (viaDaemon) {
            DaemonOptions opts;
            opts.outDir = dir;
            opts.closeActive = true;
            auto d = ConsumerDaemon::make(s.take(), opts);
            ASSERT_TRUE(d.ok());
            ConsumerDaemon &daemon = *d.value();
            workload(daemon.session());
            ASSERT_TRUE(daemon.drainOnce().ok());
            workload(daemon.session());
            ASSERT_TRUE(daemon.drainOnce().ok());
            rmws[1] =
                daemon.session()->countersSnapshot().sharedRmws;
            daemon.stop();
        } else {
            Session sess = s.take();
            DumpCursor cursor;
            workload(sess);
            (void)sess->dumpFrom(cursor, DumpOptions{.closeActive = true});
            workload(sess);
            (void)sess->dumpFrom(cursor, DumpOptions{.closeActive = true});
            rmws[0] = sess->countersSnapshot().sharedRmws;
        }
    }
    EXPECT_EQ(rmws[0], rmws[1]);
}

TEST(TraceFileCodec, TornTailIsCorruptionStrictButReadableLossy)
{
    const std::string path =
        testing::TempDir() + "torn_tail.btrace";
    {
        const int fd = ::open(path.c_str(),
                              O_CREAT | O_TRUNC | O_WRONLY, 0644);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(writeTraceFileHeader(fd).ok());
        std::vector<DumpEntry> entries;
        for (uint64_t st = 1; st <= 5; ++st)
            entries.push_back(DumpEntry{st, 40, 0, 1, 0, true});
        ASSERT_TRUE(appendTraceRecords(fd, entries).ok());
        ::close(fd);
    }
    // Tear the last record in half — the shape a crash mid-write
    // leaves behind.
    ASSERT_EQ(::truncate(path.c_str(),
                         off_t(8 + 5 * sizeof(TraceDiskRecord) -
                               sizeof(TraceDiskRecord) / 2)),
              0);

    auto strict = readTraceFile(path);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::Corruption);

    auto lossy = readSegment(path, /*strict=*/false);
    ASSERT_TRUE(lossy.ok()) << lossy.status().toString();
    EXPECT_TRUE(lossy.value().torn);
    // Every complete record.
    EXPECT_EQ(lossy.value().entries.size(), 4u);
    EXPECT_EQ(lossy.value().entries.back().stamp, 4u);
    std::remove(path.c_str());
}

TEST(TraceFileCodec, RejectsForeignFile)
{
    const std::string path =
        testing::TempDir() + "foreign.btrace";
    {
        std::ofstream out(path, std::ios::binary);
        out << "definitely not a trace";
    }
    auto r = readTraceFile(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::Corruption);

    auto missing = readTraceFile(testing::TempDir() +
                                 "nonexistent.btrace");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::NotFound);
    std::remove(path.c_str());
}

} // namespace
} // namespace btrace
