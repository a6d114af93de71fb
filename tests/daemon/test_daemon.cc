/**
 * @file
 * Unit tests for the btraced drain loop (daemon/daemon.h): segment
 * writing and rotation, retention, the final close-active drain on
 * stop, stats accounting, and the shared trace-file codec's torn-tail
 * behavior that crash-robust collection depends on.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

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
    // lease must stop there, not walk past it: once the lease
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

    recordOn(daemon.session(), 1, 1, 10);
    auto near = daemon.drainOnce();
    ASSERT_TRUE(near.ok());
    EXPECT_EQ(near.value(), 0u);  // still waiting at core 0's block

    constexpr uint64_t kCore1 = 150;  // ~20 blocks: past 2 x 8
    recordOn(daemon.session(), 1, 11, kCore1 - 10);
    auto far = daemon.drainOnce();
    ASSERT_TRUE(far.ok());
    // The held block's metadata slot never reaches its next round, so
    // this drain waits again at that slot's last candidate near the
    // frontier; everything before it has landed.
    EXPECT_GE(far.value(), 7u * 10);
    EXPECT_EQ(daemon.stats().unreadableBlocks, 1u);

    writeNormal(held.dst, 1000, 0, 1, 0, 16);
    daemon.session()->confirm(held);
    daemon.stop();
    EXPECT_EQ(daemon.stats().entries, kCore1);
    EXPECT_EQ(daemon.stats().unreadableBlocks, 1u);
    EXPECT_EQ(daemon.stats().overwrittenPositions, 0u);
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

    auto loaded = readTraceFile(daemonSegmentPath(dir, 0));
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().size(), 25u);
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
// the same contract bar the control/journal/observer planes meet.
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
            (void)sess->dumpFrom(cursor, DumpOptions{true, false});
            workload(sess);
            (void)sess->dumpFrom(cursor, DumpOptions{true, false});
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

    bool torn = false;
    auto lossy = readTraceFileLossy(path, &torn);
    ASSERT_TRUE(lossy.ok()) << lossy.status().toString();
    EXPECT_TRUE(torn);
    EXPECT_EQ(lossy.value().size(), 4u);  // every complete record
    EXPECT_EQ(lossy.value().back().stamp, 4u);
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
