/**
 * @file
 * Asynchronous trace persistence (§2.1 "Persist vs. In-memory").
 *
 * Most smartphone tracing stays in memory, but userspace tracers also
 * support persisting via an asynchronous reader. TracePersister is
 * that reader: a background thread polls the incremental consumer
 * (Tracer::dumpFrom) and appends the decoded entries to a compact
 * binary file that load() reads back. Producers never block on
 * storage — exactly the decoupling the paper describes for
 * LTTng-style persist mode. Any Tracer works; BTrace's cursor is
 * genuinely incremental while the baselines snapshot-and-filter.
 */

#ifndef BTRACE_CORE_PERSISTER_H
#define BTRACE_CORE_PERSISTER_H

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "trace/trace_file.h"
#include "trace/tracer.h"

namespace btrace {

/** Knobs of the background persister. */
struct PersisterOptions
{
    /** Poll period of the reader thread. */
    double pollIntervalSec = 0.005;
    /**
     * Close partially filled blocks on each poll (§4.3). Without it
     * only completed blocks are persisted and the newest entries wait
     * in their active blocks.
     */
    bool closeActive = false;
};

/** Background reader persisting a tracer's buffer to a file. */
class TracePersister
{
  public:
    /** Start persisting @p tracer into @p path (truncates). */
    TracePersister(Tracer &tracer, const std::string &path,
                   const PersisterOptions &options = {});

    /** Stops and flushes if still running. */
    ~TracePersister();

    TracePersister(const TracePersister &) = delete;
    TracePersister &operator=(const TracePersister &) = delete;

    /**
     * Stop the reader: one final poll (with close-on-read so the tail
     * is captured), flush, close. Idempotent.
     */
    void stop();

    /** Entries persisted so far. */
    uint64_t persistedEntries() const
    {
        return persisted.load(std::memory_order_acquire);
    }

    /**
     * Read a persisted file back: NotFound / Corruption as a Status
     * (trace_file.h does the decoding; daemon segments read the same
     * way).
     */
    static Expected<std::vector<DumpEntry>>
    tryLoad(const std::string &path);

    /** tryLoad, fatal on any error (legacy convenience). */
    static std::vector<DumpEntry> load(const std::string &path);

  private:
    void run();
    /** One dumpFrom pass with @p opts, appended to the file. */
    void persistPass(const DumpOptions &opts);

    Tracer &tracer;
    PersisterOptions opt;
    std::string path;
    std::atomic<bool> stopping{false};
    std::atomic<uint64_t> persisted{0};
    DumpCursor cursor;
    Dump pass;                             //!< reused across passes
    std::vector<TraceDiskRecord> records;  //!< encode buffer, reused
    int fd = -1;
    std::thread worker;
};

} // namespace btrace

#endif // BTRACE_CORE_PERSISTER_H
