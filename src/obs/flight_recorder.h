/**
 * @file
 * Crash-safe flight recorder of the observability plane (DESIGN.md §9).
 *
 * When the watchdog trips — or a tool asks — the most valuable thing
 * to capture is the tracer's state *right now*, before anyone pokes at
 * it: the last-N lifecycle journal events (the transition sequence
 * that got here), a counters snapshot, and the raw per-slot metadata
 * words. The FlightRecorder renders that as one self-contained JSON
 * bundle and writes it to a file.
 *
 * Trigger rules: dump() is invoked (a) by the StatsSampler's health
 * hook on the first HealthWatchdog trip of a run, (b) explicitly by
 * tools (`replay --flight-out`, end-of-run), (c) by tests. Capture is
 * async-safe with respect to the tracer: it takes no tracer locks and
 * reads only relaxed atomics (countersSnapshot, slotStatesInto,
 * journal snapshotInto), so it works even while producers are live or
 * a resize is wedged mid-quiesce — exactly the states worth
 * post-morteming. The dump path additionally never allocates: every
 * capture buffer is sized at construction, the JSON is rendered by
 * JsonWriter over that preallocated buffer (common/json_writer.h),
 * and the file write uses POSIX open/write —
 * so a trip fired *because* the process is out of memory still
 * produces a bundle. On an arena-backed tracer (shm/file storage,
 * DESIGN.md §10) the bundle is also copied into the arena's flight
 * region, where it survives process death.
 */

#ifndef BTRACE_OBS_FLIGHT_RECORDER_H
#define BTRACE_OBS_FLIGHT_RECORDER_H

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/btrace.h"
#include "obs/journal.h"

namespace btrace {

struct FlightRecorderOptions
{
    /** Bundle file path; empty disables dump() (render still works). */
    std::string path;
    /** Journal tail length included in the bundle. */
    std::size_t lastN = 256;
};

class FlightRecorder
{
  public:
    /**
     * @p journal may be null (bundle then has an empty journal
     * section). Both referents must outlive the recorder. All capture
     * scratch is allocated here, once — dump() never allocates.
     */
    FlightRecorder(BTrace &tracer, const EventJournal *journal,
                   FlightRecorderOptions options);

    /** Render the bundle JSON without touching the filesystem. */
    std::string render(const std::string &trigger) const;

    /**
     * Render the bundle into @p dst (at most @p cap bytes, truncating
     * if undersized — the preallocated internal buffer never is) and
     * return the length written. Allocation-free and lock-free; not
     * reentrant (concurrent captures share the scratch buffers — the
     * latest trip is the one worth keeping anyway).
     */
    std::size_t renderInto(char *dst, std::size_t cap,
                           const char *trigger) const noexcept;

    /**
     * Capture the bundle, copy it into the storage arena's flight
     * region when the tracer has one, and write it to options.path,
     * overwriting any previous bundle. Returns false when the path is
     * empty or the file write failed. Never allocates — safe on a
     * watchdog trip caused by memory exhaustion.
     */
    bool dump(const char *trigger) noexcept;

    bool dump(const std::string &trigger)
    {
        return dump(trigger.c_str());
    }

    /** Bundles successfully written so far. */
    uint64_t dumps() const
    {
        return written.load(std::memory_order_relaxed);
    }

  private:
    BTrace &bt;
    const EventJournal *jnl;
    FlightRecorderOptions opt;
    std::atomic<uint64_t> written{0};
    /**
     * Constructor-sized capture scratch (mutable: render is logically
     * const; the scratch is why captures are not reentrant).
     */
    mutable std::vector<MetaSlotState> slotScratch;
    mutable std::vector<JournalRecord> jnlScratch;
    mutable std::vector<char> renderBuf;
};

/** parseFlightBundle() result: the decoded view of one bundle file. */
struct ParsedFlightBundle
{
    bool ok = false;
    std::string error;  //!< first problem found when !ok
    std::string trigger;
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    /** Per-slot state: field name → value, one map per metadata slot. */
    std::vector<std::map<std::string, double>> slots;
    uint64_t journalEmitted = 0;
    /** Journal tail; kind is the snake_case name, reason set for closes. */
    struct Event
    {
        std::string kind;
        std::string reason;  //!< block_close only, else empty
        uint64_t tsc = 0;
        uint64_t seq = 0;
        uint64_t block = 0;
        uint64_t arg = 0;
        uint32_t tid = 0;
        uint32_t core = 0;
    };
    std::vector<Event> journal;
};

/** Parse a bundle previously produced by FlightRecorder::render(). */
ParsedFlightBundle parseFlightBundle(const std::string &text);

} // namespace btrace

#endif // BTRACE_OBS_FLIGHT_RECORDER_H
