#include "daemon/daemon.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>

#include "trace/trace_file.h"

namespace btrace {

namespace {

/** mkdir -p: create every missing component of @p dir. */
Status
makeDirs(const std::string &dir)
{
    if (dir.empty() || dir == "." || dir == "/")
        return Status();
    std::string prefix;
    prefix.reserve(dir.size());
    std::size_t i = 0;
    while (i < dir.size()) {
        const std::size_t slash = dir.find('/', i + 1);
        prefix = dir.substr(0, slash == std::string::npos ? dir.size()
                                                          : slash);
        if (!prefix.empty() && prefix != "/" &&
            ::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
            return errIo("cannot create output directory " + prefix);
        if (slash == std::string::npos)
            break;
        i = slash;
    }
    return Status();
}

} // namespace

std::string
daemonSegmentPath(const std::string &out_dir, uint64_t index)
{
    char name[64];
    std::snprintf(name, sizeof(name), "segment-%06llu.btrace",
                  static_cast<unsigned long long>(index));
    return out_dir + "/" + name;
}

Expected<std::unique_ptr<ConsumerDaemon>>
ConsumerDaemon::make(Session session, const DaemonOptions &opts)
{
    if (!session.valid())
        return errInvalidArgument("daemon needs a valid session");
    if (Status st = makeDirs(opts.outDir); !st.ok())
        return st;
    std::unique_ptr<ConsumerDaemon> d(
        new ConsumerDaemon(std::move(session), opts));
    if (Status st = d->openSegment(); !st.ok())
        return st;
    return Expected<std::unique_ptr<ConsumerDaemon>>(std::move(d));
}

ConsumerDaemon::ConsumerDaemon(Session s, const DaemonOptions &o)
    : sess(std::move(s)), opt(o)
{
}

ConsumerDaemon::~ConsumerDaemon()
{
    stop();
}

Status
ConsumerDaemon::openSegment()
{
    const std::string path = daemonSegmentPath(opt.outDir, segIndex);
    segFd = ::open(path.c_str(),
                   O_CREAT | O_TRUNC | O_RDWR | O_CLOEXEC, 0644);
    if (segFd < 0)
        return errIo("cannot open segment " + path);
    segHdr = SegmentHeaderV2{};
    segHdr.writerPid = uint64_t(::getpid());
    segHdr.attachGeneration = sess.generation();
    if (Status s = writeSegmentHeaderV2(segFd, segHdr); !s.ok()) {
        ::close(segFd);
        segFd = -1;
        return s;
    }
    segBytes = 0;
    ++st.segmentsOpened;
    return Status();
}

/** Stamp the clean-close flag and sync the finished segment. */
void
ConsumerDaemon::finalizeSegmentLocked()
{
    segHdr.flags |= SegmentHeaderV2::kCleanClose;
    (void)updateSegmentHeaderV2(segFd, segHdr);
    ::fsync(segFd);
}

Status
ConsumerDaemon::rotateIfNeeded()
{
    if (segBytes < opt.segmentBytes)
        return Status();
    finalizeSegmentLocked();
    ::close(segFd);
    segFd = -1;
    ++segIndex;
    if (Status s = openSegment(); !s.ok())
        return s;
    // Age out the oldest finished segments beyond the retention cap.
    if (opt.maxSegments != 0) {
        while (segIndex - oldestSegIndex > opt.maxSegments) {
            const std::string victim =
                daemonSegmentPath(opt.outDir, oldestSegIndex);
            if (::unlink(victim.c_str()) == 0)
                ++st.segmentsDeleted;
            ++oldestSegIndex;
        }
    }
    return Status();
}

Status
ConsumerDaemon::drainLocked(const Dump &d,
                            std::vector<uint32_t> &fresh)
{
    const bool sawLoss = d.overwrittenPositions != 0 ||
                         d.skippedBlocks != 0 ||
                         d.abandonedBlocks != 0;
    if (!d.entries.empty()) {
        // Records first, header second: a crash between the two
        // leaves the header *undercounting*, which the offline reader
        // reconciles (declared < scanned), never overcounting.
        if (Status s = appendTraceRecords(segFd, d.entries); !s.ok())
            return s;
        segBytes += d.entries.size() * sizeof(TraceDiskRecord);

        const uint64_t now = wallClockNs();
        if (segHdr.firstDrainUnixNs == 0)
            segHdr.firstDrainUnixNs = now;
        segHdr.lastDrainUnixNs = now;

        uint64_t newestStamp = 0;
        for (const DumpEntry &e : d.entries) {
            segHdr.noteEntry(e);
            st.payloadBytes += e.size;
            ProducerTally &tally = producers[e.thread];
            if (tally.records == 0 && tally.payloadBytes == 0)
                fresh.push_back(e.thread);
            ++tally.records;
            tally.payloadBytes += e.size;
            if (e.stamp >= kWallClockStampFloorNs) {
                if (now >= e.stamp) {
                    drainLag.add(now - e.stamp);
                    ++st.lagSampledRecords;
                } else {
                    // Drained before its own stamp: the wall clock
                    // stepped back between record and drain. A
                    // negative lag is garbage — keep it out of the
                    // histogram and count the clamp instead.
                    ++st.drainLagClamped;
                }
                if (e.stamp > newestStamp)
                    newestStamp = e.stamp;
            } else {
                ++st.lagUnstampedRecords;
            }
        }
        if (newestStamp != 0)
            lastLagNs = now > newestStamp ? now - newestStamp : 0;
    }
    segHdr.overwrittenPositions += d.overwrittenPositions;
    segHdr.skippedBlocks += d.skippedBlocks;
    segHdr.abandonedBlocks += d.abandonedBlocks;

    ++st.drains;
    st.entries += d.entries.size();
    st.overwrittenPositions += d.overwrittenPositions;
    st.skippedBlocks += d.skippedBlocks;
    st.abandonedBlocks += d.abandonedBlocks;
    st.unreadableBlocks += d.unreadableBlocks;

    if (!d.entries.empty() || sawLoss)
        return updateSegmentHeaderV2(segFd, segHdr);
    return Status();
}

Expected<uint64_t>
ConsumerDaemon::drainOnce()
{
    std::vector<uint32_t> fresh;
    MetricsRegistry *reg = nullptr;
    uint64_t n = 0;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (segFd < 0)
            return errInvalidArgument("daemon already stopped");
        if (Status s = rotateIfNeeded(); !s.ok())
            return s;
        const Dump d =
            sess->dumpFrom(cursor, DumpOptions{opt.closeActive, false});
        if (Status s = drainLocked(d, fresh); !s.ok())
            return s;
        n = uint64_t(d.entries.size());
        reg = metricsReg;
    }
    // Outside mu: MetricsRegistry::collect() holds the registry lock
    // while running callbacks that take mu, so registering under mu
    // would invert that order (ABBA).
    exportProducers(fresh, reg);
    return Expected<uint64_t>(n);
}

SweepReport
ConsumerDaemon::sweepNow()
{
    const SweepReport r = sess.sweepDeadOwners();
    std::lock_guard<std::mutex> lock(mu);
    ++st.sweeps;
    st.reclaimedLeases += r.reclaimedLeases;
    st.reclaimedBytes += r.reclaimedBytes;
    st.clearedAttachments += r.clearedAttachments;
    return r;
}

void
ConsumerDaemon::run()
{
    const auto interval =
        std::chrono::duration<double>(opt.drainIntervalSec);
    uint64_t ticks = 0;
    while (!stopping.load(std::memory_order_acquire)) {
        (void)drainOnce();
        ++ticks;
        if (opt.sweepEveryNDrains != 0 &&
            ticks % opt.sweepEveryNDrains == 0)
            (void)sweepNow();
        std::this_thread::sleep_for(interval);
    }
}

void
ConsumerDaemon::start()
{
    if (running.exchange(true, std::memory_order_acq_rel))
        return;
    stopping.store(false, std::memory_order_release);
    worker = std::thread([this]() { run(); });
}

void
ConsumerDaemon::stop()
{
    stopping.store(true, std::memory_order_release);
    if (worker.joinable())
        worker.join();
    running.store(false, std::memory_order_release);

    std::vector<uint32_t> fresh;
    MetricsRegistry *reg = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (segFd < 0)
            return;
        // Final close-active drain so the tail of every open block
        // lands, then finalize the segment as cleanly closed. No pass
        // follows, so it must not stop at a block a writer still holds.
        const Dump d =
            sess->dumpFrom(cursor, DumpOptions{true, false, true});
        (void)drainLocked(d, fresh);
        finalizeSegmentLocked();
        ::close(segFd);
        segFd = -1;
        reg = metricsReg;
    }
    exportProducers(fresh, reg);
}

DaemonStats
ConsumerDaemon::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return st;
}

std::map<uint32_t, ProducerTally>
ConsumerDaemon::producerTallies() const
{
    std::lock_guard<std::mutex> lock(mu);
    return producers;
}

uint64_t
ConsumerDaemon::lastDrainLagNs() const
{
    std::lock_guard<std::mutex> lock(mu);
    return lastLagNs;
}

std::string
ConsumerDaemon::currentSegmentPath() const
{
    std::lock_guard<std::mutex> lock(mu);
    return daemonSegmentPath(opt.outDir, segIndex);
}

void
ConsumerDaemon::registerMetrics(MetricsRegistry &registry)
{
    auto counter = [this, &registry](const char *name, const char *help,
                                     uint64_t DaemonStats::*field) {
        registry.addCounter(name, help, [this, field]() {
            std::lock_guard<std::mutex> lock(mu);
            return double(st.*field);
        });
    };
    counter("btraced_drains_total", "consumer drain passes",
            &DaemonStats::drains);
    counter("btraced_entries_total", "entries written to segments",
            &DaemonStats::entries);
    counter("btraced_segments_opened_total", "segment files opened",
            &DaemonStats::segmentsOpened);
    counter("btraced_segments_deleted_total",
            "segments aged out by retention", &DaemonStats::segmentsDeleted);
    counter("btraced_sweeps_total", "dead-producer sweep passes",
            &DaemonStats::sweeps);
    counter("btraced_reclaimed_leases_total",
            "leases reclaimed from dead producers",
            &DaemonStats::reclaimedLeases);
    counter("btraced_reclaimed_bytes_total",
            "bytes confirmed on behalf of dead producers",
            &DaemonStats::reclaimedBytes);
    counter("btraced_cleared_attachments_total",
            "crashed attachments swept from the registry",
            &DaemonStats::clearedAttachments);
    counter("btraced_overwritten_positions_total",
            "positions lost to producer overwrite (data loss)",
            &DaemonStats::overwrittenPositions);
    counter("btraced_skipped_blocks_total",
            "blocks lost to SKP markers (data loss)",
            &DaemonStats::skippedBlocks);
    counter("btraced_abandoned_blocks_total",
            "blocks abandoned by dead producers (data loss)",
            &DaemonStats::abandonedBlocks);
    counter("btraced_unreadable_blocks_total",
            "blocks walked past with writes unconfirmed (data loss)",
            &DaemonStats::unreadableBlocks);
    counter("btraced_payload_bytes_total",
            "payload bytes drained to segments",
            &DaemonStats::payloadBytes);
    counter("btraced_lag_sampled_records_total",
            "wall-clock-stamped records fed to the drain-lag histogram",
            &DaemonStats::lagSampledRecords);
    counter("btraced_lag_unstamped_records_total",
            "logically stamped records with no wall-clock lag",
            &DaemonStats::lagUnstampedRecords);
    counter("btraced_drain_lag_clamped_total",
            "future-stamped records clamped out of the lag histogram",
            &DaemonStats::drainLagClamped);
    registry.addGauge("btraced_segment_bytes",
                      "payload bytes in the open segment", [this]() {
                          std::lock_guard<std::mutex> lock(mu);
                          return double(segBytes);
                      });
    registry.addGauge("btraced_last_drain_lag_ns",
                      "newest-record lag of the latest drain pass",
                      [this]() {
                          std::lock_guard<std::mutex> lock(mu);
                          return double(lastLagNs);
                      });
    registry.addGauge("btraced_producers_seen",
                      "distinct writer ids drained so far", [this]() {
                          std::lock_guard<std::mutex> lock(mu);
                          return double(producers.size());
                      });
    registry.addHistogram("btraced_drain_lag_ns",
                          "record-stamp to drain-time lag", &drainLag);

    // Producers drained before this call get their labeled series
    // now; later arrivals are added lazily by drainOnce (outside mu —
    // see there for the lock-order note).
    std::vector<uint32_t> known;
    {
        std::lock_guard<std::mutex> lock(mu);
        metricsReg = &registry;
        known.reserve(producers.size());
        for (const auto &kv : producers)
            known.push_back(kv.first);
    }
    exportProducers(known, &registry);
}

void
ConsumerDaemon::exportProducers(const std::vector<uint32_t> &ids,
                                MetricsRegistry *registry)
{
    if (registry == nullptr || ids.empty())
        return;
    for (const uint32_t id : ids) {
        const MetricLabels labels = {
            {"producer", std::to_string(id)}};
        registry->addCounter(
            "btraced_producer_records_total",
            "records drained, by writer id", labels, [this, id]() {
                std::lock_guard<std::mutex> lock(mu);
                const auto it = producers.find(id);
                return it == producers.end()
                           ? 0.0
                           : double(it->second.records);
            });
        registry->addCounter(
            "btraced_producer_bytes_total",
            "payload bytes drained, by writer id", labels,
            [this, id]() {
                std::lock_guard<std::mutex> lock(mu);
                const auto it = producers.find(id);
                return it == producers.end()
                           ? 0.0
                           : double(it->second.payloadBytes);
            });
    }
}

} // namespace btrace
