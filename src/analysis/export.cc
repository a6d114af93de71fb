#include "analysis/export.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/format.h"
#include "common/json_writer.h"
#include "trace/trace_file.h"

namespace btrace {

namespace {

std::vector<DumpEntry>
sortedByStamp(const std::vector<DumpEntry> &entries)
{
    std::vector<DumpEntry> out = entries;
    std::sort(out.begin(), out.end(),
              [](const DumpEntry &a, const DumpEntry &b) {
                  return a.stamp < b.stamp;
              });
    return out;
}

const TracepointRegistry &
registryOf(const ExportOptions &opt)
{
    return opt.registry ? *opt.registry : TracepointRegistry::global();
}

/** The entry events of exportChromeJson, into the array open in @p w. */
void
writeEntryEvents(JsonWriter &w, const std::vector<DumpEntry> &entries,
                 const ExportOptions &opt)
{
    const TracepointRegistry &reg = registryOf(opt);
    for (const DumpEntry &e : sortedByStamp(entries)) {
        w.beginObject().field("name", reg.byId(e.category).name);
        w.field("ph", "i").field("s", "t").key("ts");
        // Chrome's ts is in microseconds. A stamp at or above the
        // wall-clock floor is CLOCK_REALTIME ns (btrace_producer
        // --wallclock-stamps), split in integers so no digit is lost;
        // a logical stamp counts one microsecond.
        if (e.stamp >= kWallClockStampFloorNs)
            w.thousandths(e.stamp / 1000, unsigned(e.stamp % 1000));
        else
            w.thousandths(e.stamp, 0);
        w.field("pid", e.core).field("tid", e.thread);
        w.key("args").beginObject().field("stamp", e.stamp);
        w.field("size", e.size).endObject().endObject();
    }
}

/** RFC 4180: a field holding a comma, quote or line break is quoted. */
void
writeCsvField(std::ostream &out, const std::string &field)
{
    if (field.find_first_of(",\"\n\r") == std::string::npos) {
        out << field;
        return;
    }
    out << '"';
    for (const char c : field) {
        if (c == '"')
            out << '"';  // an embedded quote is doubled
        out << c;
    }
    out << '"';
}

} // namespace

std::string
exportChromeJson(const std::vector<DumpEntry> &entries,
                 const ExportOptions &opt)
{
    return exportChromeJsonWithJournal(entries, {}, opt);
}

std::string
exportChromeJsonWithJournal(const std::vector<DumpEntry> &entries,
                            const std::vector<JournalRecord> &journal,
                            const ExportOptions &opt,
                            const TraceEventExportOptions &jopt)
{
    std::string out;
    out.reserve(32 + (entries.size() + journal.size()) * 128);
    JsonWriter w(out);
    w.beginObject().key("traceEvents").beginArray();
    writeEntryEvents(w, entries, opt);
    writeJournalTraceEvents(w, journal, jopt);
    w.endArray().endObject();
    return out;
}

std::string
exportCsv(const std::vector<DumpEntry> &entries, const ExportOptions &opt)
{
    const TracepointRegistry &reg = registryOf(opt);
    std::ostringstream out;
    out << "stamp,core,thread,category,category_name,size\n";
    for (const DumpEntry &e : sortedByStamp(entries)) {
        out << e.stamp << ',' << e.core << ',' << e.thread << ','
            << e.category << ',';
        writeCsvField(out, reg.byId(e.category).name);
        out << ',' << e.size << '\n';
    }
    return out.str();
}

std::string
summarizeDump(const Dump &dump, const ExportOptions &opt)
{
    const TracepointRegistry &reg = registryOf(opt);

    struct Tally
    {
        uint64_t count = 0;
        double bytes = 0;
    };
    std::map<uint16_t, Tally> per_core;
    std::map<uint16_t, Tally> per_cat;
    uint64_t lo = ~0ull, hi = 0;
    double total = 0;
    for (const DumpEntry &e : dump.entries) {
        auto &core_tally = per_core[e.core];
        ++core_tally.count;
        core_tally.bytes += e.size;
        auto &cat_tally = per_cat[e.category];
        ++cat_tally.count;
        cat_tally.bytes += e.size;
        lo = std::min(lo, e.stamp);
        hi = std::max(hi, e.stamp);
        total += e.size;
    }

    std::ostringstream out;
    out << "dump: " << dump.entries.size() << " entries, "
        << humanBytes(total);
    if (!dump.entries.empty())
        out << ", stamps " << lo << ".." << hi;
    out << "\nblocks: " << dump.skippedBlocks << " skipped, "
        << dump.abandonedBlocks << " abandoned, "
        << dump.unreadableBlocks << " unreadable\n";

    TextTable cores;
    cores.header({"core", "entries", "bytes"});
    for (const auto &[core, tally] : per_core) {
        cores.row({std::to_string(core), std::to_string(tally.count),
                   humanBytes(tally.bytes)});
    }
    out << "\nper core:\n" << cores.render();

    TextTable cats;
    cats.header({"category", "entries", "bytes"});
    for (const auto &[cat, tally] : per_cat) {
        cats.row({reg.byId(cat).name, std::to_string(tally.count),
                  humanBytes(tally.bytes)});
    }
    out << "\nper category:\n" << cats.render();
    return out.str();
}

} // namespace btrace
