/**
 * @file
 * Chrome trace-event export of the lifecycle journal (DESIGN.md §9).
 *
 * Emits the legacy Chrome trace-event JSON format ("JSON Array
 * Format" with a traceEvents wrapper) that Perfetto's legacy importer
 * and chrome://tracing both load: blocks become tracks under a
 * "BTrace blocks" process with open→close complete ("X") events,
 * skips become instant events on the affected block's track, and
 * lease / resize / reclaim / consumer / watchdog transitions become
 * instant ("i") events under a "BTrace lifecycle" process. Timestamps
 * are microseconds rebased to the earliest journal record.
 */

#ifndef BTRACE_OBS_TRACE_EXPORT_H
#define BTRACE_OBS_TRACE_EXPORT_H

#include <string>
#include <vector>

#include "common/json_writer.h"
#include "obs/journal.h"

namespace btrace {

struct TraceEventExportOptions
{
    /**
     * Active-block count A. When nonzero, block events are folded
     * onto A tracks (track = position mod A, matching the metadata
     * slot); 0 falls back to position mod 64.
     */
    std::size_t activeBlocks = 0;
};

/**
 * Append the journal's trace events to the array open in @p w, after
 * whatever events it already holds (see analysis/export.h); nothing
 * when @p records is empty.
 */
void writeJournalTraceEvents(JsonWriter &w,
                             const std::vector<JournalRecord> &records,
                             const TraceEventExportOptions &opt = {});

/** Render a complete `{"traceEvents":[...]}` document. */
std::string
exportJournalChromeJson(const std::vector<JournalRecord> &records,
                        const TraceEventExportOptions &opt = {});

} // namespace btrace

#endif // BTRACE_OBS_TRACE_EXPORT_H
