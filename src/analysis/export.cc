#include "analysis/export.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/format.h"

namespace btrace {

namespace {

std::vector<DumpEntry>
prepared(const std::vector<DumpEntry> &entries, const ExportOptions &opt)
{
    std::vector<DumpEntry> out = entries;
    if (opt.sortByStamp) {
        std::sort(out.begin(), out.end(),
                  [](const DumpEntry &a, const DumpEntry &b) {
                      return a.stamp < b.stamp;
                  });
    }
    return out;
}

const TracepointRegistry &
registryOf(const ExportOptions &opt)
{
    return opt.registry ? *opt.registry : TracepointRegistry::global();
}

/** The entry events of exportChromeJson, without the wrapper. */
std::string
entryTraceEvents(const std::vector<DumpEntry> &entries,
                 const ExportOptions &opt)
{
    const TracepointRegistry &reg = registryOf(opt);
    std::ostringstream out;
    bool first = true;
    for (const DumpEntry &e : prepared(entries, opt)) {
        if (!first)
            out << ",";
        first = false;
        const double us = double(e.stamp) * opt.nsPerStamp / 1000.0;
        out << "{\"name\":\"" << reg.byId(e.category).name
            << "\",\"ph\":\"i\",\"s\":\"t\""
            << ",\"ts\":" << fmtDouble(us, 3)
            << ",\"pid\":" << e.core
            << ",\"tid\":" << e.thread
            << ",\"args\":{\"stamp\":" << e.stamp
            << ",\"size\":" << e.size << "}}";
    }
    return out.str();
}

} // namespace

std::string
exportChromeJson(const std::vector<DumpEntry> &entries,
                 const ExportOptions &opt)
{
    return "{\"traceEvents\":[" + entryTraceEvents(entries, opt) + "]}";
}

std::string
exportChromeJsonWithJournal(const std::vector<DumpEntry> &entries,
                            const std::vector<JournalRecord> &journal,
                            const ExportOptions &opt,
                            const TraceEventExportOptions &jopt)
{
    const std::string entry_events = entryTraceEvents(entries, opt);
    const std::string journal_events = journalTraceEvents(journal, jopt);
    std::string out = "{\"traceEvents\":[";
    out += entry_events;
    if (!entry_events.empty() && !journal_events.empty())
        out += ",";
    out += journal_events;
    out += "]}";
    return out;
}

std::string
exportCsv(const std::vector<DumpEntry> &entries, const ExportOptions &opt)
{
    const TracepointRegistry &reg = registryOf(opt);
    std::ostringstream out;
    out << "stamp,core,thread,category,category_name,size\n";
    for (const DumpEntry &e : prepared(entries, opt)) {
        out << e.stamp << ',' << e.core << ',' << e.thread << ','
            << e.category << ',' << reg.byId(e.category).name << ','
            << e.size << '\n';
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
