#include "obs/trace_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

namespace btrace {

namespace {

constexpr int kBlocksPid = 1;     //!< block-track process
constexpr int kLifecyclePid = 2;  //!< lease/resize/consumer process

void
processName(JsonWriter &w, int pid, const char *name)
{
    w.beginObject().field("name", "process_name").field("ph", "M");
    w.field("pid", pid).field("tid", 0);
    w.key("args").beginObject().field("name", name).endObject();
    w.endObject();
}

/**
 * One event on a block or lifecycle track: an instant ("i") of
 * @p scope, or without a scope a complete ("X") event lasting @p dur.
 * @p args writes the members of its args object.
 */
template <typename Args>
void
event(JsonWriter &w, std::string_view name, int pid, uint64_t tid,
      double ts, double dur, const char *scope, Args args)
{
    w.beginObject().field("name", name);
    w.field("ph", scope != nullptr ? "i" : "X").field("cat", "btrace");
    w.field("pid", pid).field("tid", tid);
    w.key("ts").fixed(ts, 3);
    if (scope != nullptr)
        w.field("s", scope);
    else
        w.key("dur").fixed(dur, 3);
    w.key("args").beginObject();
    args();
    w.endObject().endObject();
}

} // namespace

void
writeJournalTraceEvents(JsonWriter &w,
                        const std::vector<JournalRecord> &records,
                        const TraceEventExportOptions &opt)
{
    if (records.empty())
        return;

    uint64_t t0 = records.front().tsc;
    uint64_t tMax = t0;
    for (const JournalRecord &r : records) {
        t0 = std::min(t0, r.tsc);
        tMax = std::max(tMax, r.tsc);
    }
    // The journal's tsc is steady-clock ns; Chrome's ts is in us.
    const auto toUs = [&](uint64_t tsc) {
        return double(tsc - t0) / 1000.0;
    };
    const uint64_t tracks =
        opt.activeBlocks != 0 ? uint64_t(opt.activeBlocks) : 64;
    const auto trackOf = [&](uint64_t block) { return block % tracks; };
    const auto complete = [&](const char *name, uint64_t block,
                              double open_ts, double ts, auto args) {
        event(w, name, kBlocksPid, trackOf(block), open_ts,
              std::max(0.0, ts - open_ts), nullptr, args);
    };
    const auto instant = [&](const char *name, int pid, uint64_t tid,
                             double ts, const char *scope, auto args) {
        event(w, name, pid, tid, ts, 0.0, scope, args);
    };

    processName(w, kBlocksPid, "BTrace blocks");
    processName(w, kLifecyclePid, "BTrace lifecycle");

    // BlockOpen is stashed until its close arrives; a block position
    // opens at most once (positions are monotonic), so a plain map is
    // the full pairing state.
    std::map<uint64_t, uint64_t> openAt;  // block position -> open tsc

    for (const JournalRecord &r : records) {
        const double ts = toUs(r.tsc);
        switch (r.kind) {
          case JournalEventKind::BlockOpen:
            openAt[r.block] = r.tsc;
            break;
          case JournalEventKind::BlockClose: {
            const char *reason =
                blockCloseReasonName(static_cast<BlockCloseReason>(r.arg));
            char name[64];
            std::snprintf(name, sizeof(name), "block %" PRIu64 " (%s)",
                          r.block, reason);
            const auto it = openAt.find(r.block);
            if (it != openAt.end()) {
                complete(name, r.block, toUs(it->second), ts, [&] {
                    w.field("block", r.block).field("reason", reason);
                });
                openAt.erase(it);
            } else {
                // Close of a block whose open predates the journal
                // window (ring overwrote it): still worth a mark.
                instant(name, kBlocksPid, trackOf(r.block), ts, "t",
                        [&] { w.field("block", r.block); });
            }
            break;
          }
          case JournalEventKind::BlockSkip:
            instant("skip", kBlocksPid, trackOf(r.block), ts, "t", [&] {
                w.field("block", r.block).field("confirmed_pos", r.arg);
            });
            break;
          case JournalEventKind::WatchdogTrip:
            // Global scope: a trip concerns the whole process view.
            instant("watchdog_trip", kLifecyclePid, r.tid, ts, "g",
                    [&] { w.field("health_kind", r.arg); });
            break;
          default:
            instant(journalEventKindName(r.kind), kLifecyclePid, r.tid,
                    ts, "t",
                    [&] { w.field("block", r.block).field("arg", r.arg); });
            break;
        }
    }

    // Blocks still open when the journal ended: emit them as complete
    // events spanning to the last record so they are visible as open
    // tracks (an unclosed block is often the finding).
    for (const auto &kv : openAt) {
        char name[48];
        std::snprintf(name, sizeof(name), "block %" PRIu64 " (open)",
                      kv.first);
        complete(name, kv.first, toUs(kv.second), toUs(tMax), [&] {
            w.field("block", kv.first).field("unclosed", 1);
        });
    }
}

std::string
exportJournalChromeJson(const std::vector<JournalRecord> &records,
                        const TraceEventExportOptions &opt)
{
    std::string out;
    out.reserve(64 + records.size() * 128);
    JsonWriter w(out);
    w.beginObject().key("traceEvents").beginArray();
    writeJournalTraceEvents(w, records, opt);
    w.endArray().endObject();
    return out;
}

} // namespace btrace
