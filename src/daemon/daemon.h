/**
 * @file
 * ConsumerDaemon: the collection half of btraced, the out-of-process
 * consumer (DESIGN.md §11).
 *
 * A daemon attaches to a shared arena as one more Session and runs a
 * drain loop: each tick pulls everything new through the incremental
 * consumer (dumpFrom with a persistent cursor), appends the decoded
 * entries to a bounded rotating segment file (trace_file.h format,
 * same as TracePersister), and every few ticks sweeps the arena for
 * leases held by producers that died (Session::sweepDeadOwners).
 * Producers in other processes never block on any of it — the §4.3
 * consumer contract.
 *
 * Observability rides the PR 4/5 planes: a MetricsRegistry gauge/
 * counter set (drains, entries, segments, reclaimed leases, data
 * loss) and an optional EventJournal attached to the daemon's tracer
 * view for the lifecycle timeline. Segments are written in the v2
 * format (trace_file.h): each drain appends its records and then
 * rewrites the segment header in place with the accumulated
 * provenance — writer pid, attach generation, drain window,
 * per-category tallies, loss counters — so offline analytics
 * (btrace_stats) can reconcile segments against these live counters.
 *
 * Freshness (DESIGN.md §13): for records whose stamps are wall-clock
 * nanoseconds (>= kWallClockStampFloorNs), every drain feeds
 * record-stamp → drain-time lag into a ConcurrentHistogram and tracks
 * the newest-record lag of the latest pass; logical stamps are
 * counted as unstamped instead of polluting the histogram, and
 * records drained before their own stamp (wall-clock step-back) are
 * clamped out of it and counted separately. Per-writer
 * attribution keys on DumpEntry::thread (the writer pid for
 * cross-process arenas) and exports one labeled counter series per
 * producer.
 */

#ifndef BTRACE_DAEMON_DAEMON_H
#define BTRACE_DAEMON_DAEMON_H

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>

#include "common/latency_histogram.h"
#include "common/status.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "trace/trace_file.h"

namespace btrace {

/** Knobs of the btraced drain loop. */
struct DaemonOptions
{
    /** Directory receiving segment files (created if missing). */
    std::string outDir = ".";
    /** Rotate to a fresh segment once the current one exceeds this. */
    std::size_t segmentBytes = 4u << 20;
    /** Keep at most this many finished segments (0 = unbounded). */
    std::size_t maxSegments = 8;
    /** Seconds between drains of the run loop. */
    double drainIntervalSec = 0.01;
    /** Sweep dead producers every N drains (0 = never). */
    unsigned sweepEveryNDrains = 16;
    /**
     * Close partially filled blocks on each drain (§4.3 close-on-read)
     * so the newest entries don't wait in their active blocks.
     */
    bool closeActive = true;
};

/** Monotonic totals of one daemon's lifetime. */
struct DaemonStats
{
    uint64_t drains = 0;
    uint64_t entries = 0;           //!< entries written to segments
    uint64_t segmentsOpened = 0;
    uint64_t segmentsDeleted = 0;   //!< rotated out by maxSegments
    uint64_t sweeps = 0;
    uint64_t reclaimedLeases = 0;
    uint64_t reclaimedBytes = 0;
    uint64_t clearedAttachments = 0;
    uint64_t overwrittenPositions = 0;  //!< data loss seen by the cursor
    uint64_t skippedBlocks = 0;  //!< blocks lost to SKP markers
    uint64_t abandonedBlocks = 0;
    /**
     * Blocks a drain walked past while a writer still held them (a
     * writer that died mid-write, or any holder at the final drain):
     * their entries never reach a segment. Not in the segment header.
     */
    uint64_t unreadableBlocks = 0;
    uint64_t payloadBytes = 0;   //!< sum of drained DumpEntry::size
    uint64_t lagSampledRecords = 0;    //!< wall-clock stamps, lag taken
    uint64_t lagUnstampedRecords = 0;  //!< logical stamps, no lag
    /**
     * Wall-clock-stamped records drained *before* their stamp (the
     * clock stepped back between record and drain — NTP slew, manual
     * set, or a producer on a different clock). Their "negative" lag
     * is clamped out of the histogram and tallied here instead, so a
     * clock step is visible as a counter, not as a spurious pile of
     * zero-lag samples.
     */
    uint64_t drainLagClamped = 0;
};

/** Per-producer (writer pid) drain tallies. */
struct ProducerTally
{
    uint64_t records = 0;
    uint64_t payloadBytes = 0;
};

/**
 * The drain loop around one attached Session. Use either the
 * synchronous surface (drainOnce / sweepNow, caller-driven — what
 * tests and single-shot tools want) or start()/stop() for the
 * background thread btraced runs.
 */
class ConsumerDaemon
{
  public:
    /**
     * Wrap @p session (must be valid; typically Session::attachFile
     * or attachFd, but the owner session works too). Fails with
     * IoError when outDir cannot be created or the first segment
     * cannot be opened.
     */
    static Expected<std::unique_ptr<ConsumerDaemon>>
    make(Session session, const DaemonOptions &opts = {});

    ~ConsumerDaemon();

    ConsumerDaemon(const ConsumerDaemon &) = delete;
    ConsumerDaemon &operator=(const ConsumerDaemon &) = delete;

    /**
     * One synchronous drain: dumpFrom into the current segment,
     * rotating first when it is over budget. Returns the entries
     * drained this call.
     */
    Expected<uint64_t> drainOnce();

    /** One synchronous dead-producer sweep. */
    SweepReport sweepNow();

    /** Start the background drain thread (idempotent). */
    void start();

    /**
     * Stop the thread, run one final close-active drain so the tail
     * of every open block is captured, and sync the segment.
     * Idempotent; the destructor calls it.
     */
    void stop();

    DaemonStats stats() const;

    /** Per-producer tallies keyed by writer id (DumpEntry::thread). */
    std::map<uint32_t, ProducerTally> producerTallies() const;

    /** Record-stamp → drain-time lag of wall-clock-stamped records. */
    const ConcurrentHistogram &drainLagHistogram() const
    {
        return drainLag;
    }

    /** Newest-record lag of the latest drain that landed records. */
    uint64_t lastDrainLagNs() const;

    /** The daemon's own attachment (e.g. for attachJournal). */
    Session &session() { return sess; }

    /** Path of the segment currently being appended to. */
    std::string currentSegmentPath() const;

    /**
     * Register drain/reclaim counters, the drain-lag histogram, and
     * the per-producer labeled series on @p registry. Producers that
     * first appear in later drains get their series added lazily (the
     * registry must outlive the daemon's drain loop once passed here).
     */
    void registerMetrics(MetricsRegistry &registry);

  private:
    ConsumerDaemon(Session s, const DaemonOptions &o);

    Status openSegment();
    Status rotateIfNeeded();
    void finalizeSegmentLocked();
    /** Append + account one dump; new producer ids land in @p fresh. */
    Status drainLocked(const Dump &d, std::vector<uint32_t> &fresh);
    void exportProducers(const std::vector<uint32_t> &ids,
                         MetricsRegistry *registry);
    void run();

    Session sess;
    DaemonOptions opt;

    int segFd = -1;
    uint64_t segIndex = 0;       //!< index of the *open* segment
    uint64_t oldestSegIndex = 0; //!< oldest segment still on disk
    std::size_t segBytes = 0;    //!< payload bytes in the open segment
    SegmentHeaderV2 segHdr;      //!< accumulated header, mirrored on disk
    DumpCursor cursor;

    mutable std::mutex mu;       //!< serializes drains vs stop()
    DaemonStats st;
    std::map<uint32_t, ProducerTally> producers;
    MetricsRegistry *metricsReg = nullptr;  //!< set by registerMetrics
    uint64_t lastLagNs = 0;

    ConcurrentHistogram drainLag;

    std::atomic<bool> running{false};
    std::atomic<bool> stopping{false};
    std::thread worker;
};

/** "%s/segment-%06llu.btrace" — segment path naming, shared with tests. */
std::string daemonSegmentPath(const std::string &out_dir,
                              uint64_t index);

} // namespace btrace

#endif // BTRACE_DAEMON_DAEMON_H
