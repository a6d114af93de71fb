/**
 * @file
 * Trace exporters: turn dumps into formats existing tooling eats —
 * Chrome trace-event JSON (viewable in Perfetto / chrome://tracing),
 * CSV for spreadsheets, and a per-core/per-category text rollup. The
 * tracepoint registry supplies category names.
 */

#ifndef BTRACE_ANALYSIS_EXPORT_H
#define BTRACE_ANALYSIS_EXPORT_H

#include <string>
#include <vector>

#include "obs/journal.h"
#include "obs/trace_export.h"
#include "trace/tracepoint.h"
#include "trace/tracer.h"

namespace btrace {

/** Options shared by the exporters (which all sort by stamp). */
struct ExportOptions
{
    /** Registry used to resolve category names; null = global(). */
    const TracepointRegistry *registry = nullptr;
};

/**
 * Chrome trace-event JSON ("traceEvents" array of instant events,
 * phase "i"); cores become pids, threads become tids. Stamps become
 * microsecond timestamps: a wall-clock stamp (at or above
 * kWallClockStampFloorNs, CLOCK_REALTIME ns) converts exactly, and a
 * logical stamp counts one microsecond.
 */
std::string exportChromeJson(const std::vector<DumpEntry> &entries,
                             const ExportOptions &opt = {});

/**
 * Chrome trace-event JSON combining the dumped entries (as above)
 * with the tracer's lifecycle journal (obs/trace_export.h): block
 * tracks with open→close durations, skips/resizes/watchdog trips as
 * instants. One caveat: entry stamps and journal tscs are separate
 * clocks. Journal timestamps are rebased to the earliest record,
 * entry timestamps are not, so the two groups do not line up; ordering
 * within each group is exact.
 */
std::string exportChromeJsonWithJournal(
    const std::vector<DumpEntry> &entries,
    const std::vector<JournalRecord> &journal,
    const ExportOptions &opt = {},
    const TraceEventExportOptions &jopt = {});

/**
 * CSV with header: stamp,core,thread,category,category_name,size. A
 * category name holding a comma, quote or line break is quoted per
 * RFC 4180.
 */
std::string exportCsv(const std::vector<DumpEntry> &entries,
                      const ExportOptions &opt = {});

/**
 * Human-readable rollup: entries and bytes per core and per category,
 * plus stamp range — the first thing a developer prints after a dump.
 */
std::string summarizeDump(const Dump &dump,
                          const ExportOptions &opt = {});

} // namespace btrace

#endif // BTRACE_ANALYSIS_EXPORT_H
