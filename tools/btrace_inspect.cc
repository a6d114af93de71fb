/**
 * @file
 * btrace_inspect — command-line viewer for persisted traces.
 *
 *   btrace_inspect <trace.bin> [--json FILE] [--csv FILE]
 *                  [--head N] [--gaps]
 *   btrace_inspect --metrics <obs.jsonl>
 *   btrace_inspect --profile <obs.jsonl>
 *   btrace_inspect --journal <flight.json>
 *   btrace_inspect --arena <ring.arena>
 *   btrace_inspect --control <ring.arena>
 *   btrace_inspect --segments <dir|segment.btrace>
 *
 * Prints the per-core/per-category summary of a trace file (a btraced
 * segment or v1 file), optionally exports it for Perfetto/chrome://tracing
 * or spreadsheets, shows the first N entries, and reports continuity
 * gaps in the stamp sequence. With --metrics, the input is instead an
 * observability JSON-lines file (replay --obs-json / StatsSampler) and
 * the tool pretty-prints the last sample, headline rates, and every
 * health event in the stream. With --journal, the input is a flight
 * bundle (replay --flight-out / FlightRecorder) and the tool shows the
 * trigger, counters, per-slot block states, and the journal tail — the
 * post-mortem view of why the watchdog fired. With --arena, the input
 * is a persisted file-backed storage arena (BTraceConfig storage=file,
 * DESIGN.md §10): the tool validates the header, reports whether the
 * owning tracer shut down cleanly, decodes every readable block in the
 * data area, and prints the embedded flight bundle — the full
 * post-mortem of a process that died mid-trace. With --control, the
 * input is the same arena but the tool decodes the *control page*
 * (DESIGN.md §12) instead: the active runtime-tuning snapshot and the
 * bounded history of previously published ones — which sample rates,
 * first-K guarantees, and ring bounds were in force, and when.
 * With --segments, the input is a btraced segment directory (or one
 * segment file): every segment is validated through the v2 decoder
 * and summarized per file — version, provenance, drain window, torn
 * tails, declared-vs-scanned agreement — with directory totals at the
 * end. Deep analytics (rates, per-producer attribution, retention
 * quality) live in btrace_stats; this mode is the validator.
 * With --profile, the input is again an obs JSON-lines file but the
 * tool renders only the `btrace_profile_*` family (replay --profile /
 * registerProfilerMetrics, DESIGN.md §14): the per-phase cost
 * attribution table of the last sample — offline, from the stream
 * alone, no live process needed. Any other first argument starting
 * with '-' (--help included) prints this usage and exits 2.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <map>
#include <sstream>

#include "analysis/export.h"
#include "common/storage_backend.h"
#include "control/control_plane.h"
#include "core/arena_control.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "trace/event.h"
#include "trace/segment_stats.h"
#include "trace/trace_file.h"

using namespace btrace;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: btrace_inspect <trace.bin> [--json FILE] "
                 "[--csv FILE] [--head N] [--gaps]\n"
                 "       btrace_inspect --metrics <obs.jsonl>\n"
                 "       btrace_inspect --profile <obs.jsonl>\n"
                 "       btrace_inspect --journal <flight.json>\n"
                 "       btrace_inspect --arena <ring.arena>\n"
                 "       btrace_inspect --control <ring.arena>\n"
                 "       btrace_inspect --segments <dir|file>\n");
    return 2;
}

/** Validate and summarize a segment directory (or one segment). */
int
inspectSegments(const std::string &path)
{
    auto files = listSegmentFiles(path);
    if (!files.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     files.status().toString().c_str());
        return exitCodeFor(files.status().code());
    }
    if (files.value().empty()) {
        std::fprintf(stderr, "%s: no segment files\n", path.c_str());
        return exitCodeFor(StatusCode::NotFound);
    }

    SegmentAggregator agg;
    int bad = 0;
    for (const SegmentFile &f : files.value()) {
        auto seg = readSegment(f.path, /*strict=*/false);
        if (!seg.ok()) {
            std::printf("%-28s UNREADABLE: %s\n", f.path.c_str(),
                        seg.status().toString().c_str());
            ++bad;
            (void)agg.addFile(f);  // keep the inventory honest
            continue;
        }
        const SegmentInfo &info = seg.value();
        agg.addSegment(info, f);

        std::printf("%-28s v%u, %zu records, %llu payload bytes",
                    f.path.c_str(), info.version, info.entries.size(),
                    static_cast<unsigned long long>([&] {
                        uint64_t b = 0;
                        for (const DumpEntry &e : info.entries)
                            b += e.size;
                        return b;
                    }()));
        if (!info.entries.empty()) {
            uint64_t lo = UINT64_MAX, hi = 0;
            for (const DumpEntry &e : info.entries) {
                lo = std::min(lo, e.stamp);
                hi = std::max(hi, e.stamp);
            }
            std::printf(", stamps %llu..%llu",
                        static_cast<unsigned long long>(lo),
                        static_cast<unsigned long long>(hi));
        }
        if (info.torn)
            std::printf(", TORN tail (%llu bytes)",
                        static_cast<unsigned long long>(
                            info.tornTailBytes));
        std::printf("\n");

        if (info.version >= 2) {
            const SegmentHeaderV2 &h = info.header;
            std::printf("  writer pid %llu gen %llu, %s",
                        static_cast<unsigned long long>(h.writerPid),
                        static_cast<unsigned long long>(
                            h.attachGeneration),
                        (h.flags & SegmentHeaderV2::kCleanClose)
                            ? "clean close"
                            : "NOT closed (live or crashed)");
            if (h.firstDrainUnixNs != 0)
                std::printf(", drains %.3fs..%.3fs",
                            double(h.firstDrainUnixNs) / 1e9,
                            double(h.lastDrainUnixNs) / 1e9);
            std::printf("\n");
            if (h.recordCount != info.entries.size()) {
                std::printf("  DECLARED %llu records but scan found "
                            "%zu\n",
                            static_cast<unsigned long long>(
                                h.recordCount),
                            info.entries.size());
                ++bad;
            }
            if (h.overwrittenPositions != 0 || h.skippedBlocks != 0 ||
                h.abandonedBlocks != 0)
                std::printf("  loss: %llu overwritten, %llu skipped, "
                            "%llu abandoned\n",
                            static_cast<unsigned long long>(
                                h.overwrittenPositions),
                            static_cast<unsigned long long>(
                                h.skippedBlocks),
                            static_cast<unsigned long long>(
                                h.abandonedBlocks));
        }
    }

    const SegmentDirStats &st = agg.stats();
    std::printf("\ntotals: %llu records, %llu payload bytes across "
                "%llu segment(s)",
                static_cast<unsigned long long>(st.records),
                static_cast<unsigned long long>(st.payloadBytes),
                static_cast<unsigned long long>(st.segmentsScanned));
    if (st.rotationGaps != 0)
        std::printf("; %llu rotation gap(s), %llu aged out",
                    static_cast<unsigned long long>(st.rotationGaps),
                    static_cast<unsigned long long>(st.missingIndices));
    std::printf("\n");
    return bad == 0 ? 0 : exitCodeFor(StatusCode::Corruption);
}

/** Pretty-print an obs JSON-lines file (replay --obs-json output). */
int
inspectMetrics(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return 1;
    }

    std::vector<ParsedObsLine> samples;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        ParsedObsLine p = parseObsLine(line);
        if (!p.ok) {
            std::fprintf(stderr, "%s:%zu: bad obs line: %s\n",
                         path.c_str(), lineno, p.error.c_str());
            return 1;
        }
        samples.push_back(std::move(p));
    }
    if (samples.empty()) {
        std::fprintf(stderr, "%s: no samples\n", path.c_str());
        return 1;
    }

    const ParsedObsLine &last = samples.back();
    std::printf("%zu samples spanning %.2f s", samples.size(),
                last.tSec - samples.front().tSec);
    for (const auto &kv : last.labels)
        std::printf("  %s=%s", kv.first.c_str(), kv.second.c_str());
    std::printf("\n\nlast sample (seq %llu, t=%.2fs):\n",
                static_cast<unsigned long long>(last.seq), last.tSec);

    std::printf("  %-36s %14s %14s\n", "counter", "total", "per-sec");
    for (const auto &kv : last.counters) {
        const auto rate = last.rates.find(kv.first);
        if (rate != last.rates.end())
            std::printf("  %-36s %14.0f %14.1f\n", kv.first.c_str(),
                        kv.second, rate->second);
        else
            std::printf("  %-36s %14.0f %14s\n", kv.first.c_str(),
                        kv.second, "-");
    }
    std::printf("  %-36s %14s\n", "gauge", "value");
    for (const auto &kv : last.gauges)
        std::printf("  %-36s %14.4f\n", kv.first.c_str(), kv.second);
    for (const auto &h : last.histograms) {
        const auto g = [&](const char *k) {
            const auto it = h.second.find(k);
            return it == h.second.end() ? 0.0 : it->second;
        };
        std::printf("  %-36s count %.0f p50 %.0f p99 %.0f "
                    "p999 %.0f max %.0f\n",
                    h.first.c_str(), g("count"), g("p50"), g("p99"),
                    g("p999"), g("max"));
    }

    std::size_t events = 0;
    for (const ParsedObsLine &p : samples)
        events += p.healthKinds.size();
    std::printf("\nhealth events: %zu\n", events);
    for (const ParsedObsLine &p : samples)
        for (const std::string &k : p.healthKinds)
            std::printf("  [seq %llu] %s\n",
                        static_cast<unsigned long long>(p.seq),
                        k.c_str());
    return 0;
}

/**
 * Render the `btrace_profile_*` family of the last obs sample as a
 * phase-attribution table (offline twin of replay --profile).
 */
int
inspectProfile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return 1;
    }
    ParsedObsLine last;
    bool have = false;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        ParsedObsLine p = parseObsLine(line);
        if (!p.ok) {
            std::fprintf(stderr, "%s:%zu: bad obs line: %s\n",
                         path.c_str(), lineno, p.error.c_str());
            return 1;
        }
        last = std::move(p);
        have = true;
    }
    if (!have) {
        std::fprintf(stderr, "%s: no samples\n", path.c_str());
        return 1;
    }

    const auto hist = [&](const std::string &name,
                          const char *field) -> double {
        const auto h = last.histograms.find(name);
        if (h == last.histograms.end())
            return 0.0;
        const auto f = h->second.find(field);
        return f == h->second.end() ? 0.0 : f->second;
    };

    bool family = false;
    for (std::size_t i = 0; i < kProfilePhases; ++i)
        family =
            family ||
            last.histograms.count(
                std::string("btrace_profile_") +
                profilePhaseName(static_cast<ProfilePhase>(i)) +
                "_ns") != 0;
    if (!family) {
        std::fprintf(stderr,
                     "%s: no btrace_profile_* metrics — was the run "
                     "profiled (replay --profile)?\n",
                     path.c_str());
        return 1;
    }

    std::printf("profile of last sample (seq %llu, t=%.2fs)",
                static_cast<unsigned long long>(last.seq), last.tSec);
    for (const auto &kv : last.labels)
        std::printf("  %s=%s", kv.first.c_str(), kv.second.c_str());
    std::printf("\n\n");

    double attributed = 0.0, samples = 0.0;
    for (std::size_t i = 0; i < kProfilePhases; ++i) {
        const std::string name =
            std::string("btrace_profile_") +
            profilePhaseName(static_cast<ProfilePhase>(i)) + "_ns";
        attributed += hist(name, "sum");
        samples += hist(name, "count");
    }

    std::printf("%-12s %12s %10s %8s %8s %10s %10s %7s\n", "phase",
                "count", "mean ns", "p50", "p99", "max ns", "total us",
                "share");
    for (std::size_t i = 0; i < kProfilePhases; ++i) {
        const auto p = static_cast<ProfilePhase>(i);
        const std::string name =
            std::string("btrace_profile_") + profilePhaseName(p) +
            "_ns";
        const double count = hist(name, "count");
        const double sum = hist(name, "sum");
        std::printf("%-12s %12.0f %10.1f %8.0f %8.0f %10.0f %10.1f "
                    "%6.1f%%\n",
                    profilePhaseName(p), count,
                    count > 0 ? sum / count : 0.0, hist(name, "p50"),
                    hist(name, "p99"), hist(name, "max"), sum / 1e3,
                    attributed > 0 ? 100.0 * sum / attributed : 0.0);
    }

    const auto gauge = [&](const char *name) {
        const auto it = last.gauges.find(name);
        return it == last.gauges.end() ? 0.0 : it->second;
    };
    std::printf("\nattributed %.3f ms over %.0f probes", attributed / 1e6,
                samples);
    if (gauge("btrace_profile_ns_per_tick") > 0)
        std::printf(" (%.3f ns/tick, ~%.0f ns probe overhead "
                    "subtracted per sample)",
                    gauge("btrace_profile_ns_per_tick"),
                    gauge("btrace_profile_probe_overhead_ns"));
    std::printf("\n");
    return 0;
}

/** Shared pretty-printer for a parsed flight bundle. */
void
printFlightBundle(const ParsedFlightBundle &b)
{
    std::printf("flight bundle, trigger: %s\n\n", b.trigger.c_str());
    std::printf("  %-24s %14s\n", "counter", "value");
    for (const auto &kv : b.counters)
        std::printf("  %-24s %14.0f\n", kv.first.c_str(), kv.second);
    std::printf("  %-24s %14s\n", "gauge", "value");
    for (const auto &kv : b.gauges)
        std::printf("  %-24s %14.0f\n", kv.first.c_str(), kv.second);

    std::printf("\nslots (%zu):\n", b.slots.size());
    std::printf("  %4s %10s %10s %10s %10s\n", "slot", "alloc_rnd",
                "alloc_pos", "conf_rnd", "conf_pos");
    for (const auto &slot : b.slots) {
        const auto g = [&](const char *k) {
            const auto it = slot.find(k);
            return it == slot.end() ? 0.0 : it->second;
        };
        std::printf("  %4.0f %10.0f %10.0f %10.0f %10.0f\n", g("slot"),
                    g("alloc_rnd"), g("alloc_pos"), g("conf_rnd"),
                    g("conf_pos"));
    }

    // Per-kind tallies over the journal tail, then the tail itself.
    std::map<std::string, uint64_t> kinds;
    for (const ParsedFlightBundle::Event &e : b.journal)
        ++kinds[e.kind];
    std::printf("\njournal: %llu events emitted, tail of %zu\n",
                static_cast<unsigned long long>(b.journalEmitted),
                b.journal.size());
    for (const auto &kv : kinds)
        std::printf("  %-24s %6llu\n", kv.first.c_str(),
                    static_cast<unsigned long long>(kv.second));
    std::printf("\n  %12s %-18s %-10s %6s %6s %10s %10s\n", "tsc",
                "kind", "reason", "core", "tid", "block", "arg");
    for (const ParsedFlightBundle::Event &e : b.journal) {
        const std::string core =
            e.core == 0xffff ? "-" : std::to_string(e.core);
        std::printf("  %12llu %-18s %-10s %6s %6u %10llu %10llu\n",
                    static_cast<unsigned long long>(e.tsc),
                    e.kind.c_str(),
                    e.reason.empty() ? "-" : e.reason.c_str(),
                    core.c_str(), e.tid,
                    static_cast<unsigned long long>(e.block),
                    static_cast<unsigned long long>(e.arg));
    }
}

/** Pretty-print a flight bundle (replay --flight-out output). */
int
inspectJournal(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const ParsedFlightBundle b = parseFlightBundle(ss.str());
    if (!b.ok) {
        std::fprintf(stderr, "%s: not a flight bundle: %s\n",
                     path.c_str(), b.error.c_str());
        return 1;
    }
    printFlightBundle(b);
    return 0;
}

/** Post-mortem view of a persisted file-backed storage arena. */
int
inspectArena(const std::string &path)
{
    ArenaView v = ArenaView::open(path);
    if (!v.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     v.error().c_str());
        return exitCodeFor(v.status().code());
    }

    std::printf("arena %s\n", path.c_str());
    std::printf("  generation      %llu\n",
                static_cast<unsigned long long>(v.generation()));
    std::printf("  shutdown        %s\n",
                v.cleanShutdown() ? "clean" : "DIRTY (crashed or live)");
    std::printf("  block size      %llu bytes\n",
                static_cast<unsigned long long>(v.blockSize()));
    std::printf("  active blocks   %llu\n",
                static_cast<unsigned long long>(v.activeBlocks()));
    std::printf("  total blocks    %llu\n",
                static_cast<unsigned long long>(v.numBlocks()));
    std::printf("  data area       %zu bytes\n", v.dataBytes());

    if (v.blockSize() == 0) {
        std::printf("\nno tracer ever attached; nothing to decode\n");
        return 0;
    }

    // Decode what the ring still holds. Without the metadata words
    // (they died with the process) this is best-effort per block:
    // decode until the bytes stop parsing, as a human with a hex dump
    // would. Blocks whose first byte is not an entry magic are either
    // never-used or decommitted — count them as empty.
    const std::size_t nblocks =
        std::min<std::size_t>(v.numBlocks(),
                              v.dataBytes() / v.blockSize());
    std::size_t empty = 0, damaged = 0;
    uint64_t normals = 0, dummies = 0, skips = 0;
    uint64_t lo_stamp = UINT64_MAX, hi_stamp = 0;
    for (std::size_t phys = 0; phys < nblocks; ++phys) {
        EntryCursor cur(v.block(phys), v.blockSize());
        EntryView e;
        bool any = false;
        while (cur.next(e)) {
            any = true;
            switch (e.type) {
            case EntryType::Normal:
                ++normals;
                lo_stamp = std::min(lo_stamp, e.stamp);
                hi_stamp = std::max(hi_stamp, e.stamp);
                break;
            case EntryType::Dummy:
                ++dummies;
                break;
            case EntryType::Skip:
                ++skips;
                break;
            default:
                break;
            }
        }
        if (!any)
            ++empty;
        else if (cur.malformed())
            ++damaged;
    }
    std::printf("\nblocks: %zu scanned, %zu empty, %zu with torn tails\n",
                nblocks, empty, damaged);
    std::printf("entries: %llu normal, %llu dummy, %llu skip markers\n",
                static_cast<unsigned long long>(normals),
                static_cast<unsigned long long>(dummies),
                static_cast<unsigned long long>(skips));
    if (normals > 0)
        std::printf("stamps: %llu .. %llu\n",
                    static_cast<unsigned long long>(lo_stamp),
                    static_cast<unsigned long long>(hi_stamp));

    const std::string bundle = v.flightJson();
    if (bundle.empty()) {
        std::printf("\nno flight bundle stored\n");
        return 0;
    }
    const ParsedFlightBundle b = parseFlightBundle(bundle);
    if (!b.ok) {
        std::fprintf(stderr, "\nstored flight bundle is damaged: %s\n",
                     b.error.c_str());
        return 1;
    }
    std::printf("\n");
    printFlightBundle(b);
    return 0;
}

/** Decode the arena's control page: active + historical snapshots. */
int
inspectControl(const std::string &path)
{
    ArenaView v = ArenaView::open(path);
    if (!v.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     v.error().c_str());
        return exitCodeFor(v.status().code());
    }
    const uint8_t *ctrl = v.ctrlRegion();
    if (ctrl == nullptr) {
        std::fprintf(stderr, "%s: arena has no control region\n",
                     path.c_str());
        return exitCodeFor(StatusCode::NotFound);
    }
    const auto *hdr = reinterpret_cast<const ControlHeader *>(ctrl);
    if (hdr->magic != ControlHeader::kMagic) {
        std::fprintf(stderr, "%s: bad control-region magic\n",
                     path.c_str());
        return exitCodeFor(StatusCode::Corruption);
    }
    if (hdr->version < 2) {
        std::fprintf(stderr,
                     "%s: control region v%u predates the control "
                     "page (need v2)\n",
                     path.c_str(), hdr->version);
        return exitCodeFor(StatusCode::Incompatible);
    }
    const ControlLayout layout =
        ControlLayout::compute(hdr->cores, hdr->activeBlocks);
    if (layout.totalBytes > v.ctrlBytes()) {
        std::fprintf(stderr, "%s: control region truncated\n",
                     path.c_str());
        return exitCodeFor(StatusCode::Corruption);
    }
    const auto *page = reinterpret_cast<const ControlPage *>(
        ctrl + layout.controlPageOff);

    const uint64_t published =
        page->publishCount.load(std::memory_order_acquire);
    std::printf("control page of %s\n", path.c_str());
    std::printf("  snapshots published  %llu\n",
                static_cast<unsigned long long>(published));
    if (published == 0) {
        std::printf("  (defaults in force; nothing was ever "
                    "published)\n");
        return 0;
    }

    std::vector<ControlPageRecord> history;
    for (std::size_t i = 0; i < kControlHistory; ++i) {
        ControlPageRecord r;
        if (readControlEntry(page->entries[i], r))
            history.push_back(r);
    }
    std::sort(history.begin(), history.end(),
              [](const ControlPageRecord &a, const ControlPageRecord &b) {
                  return a.version < b.version;
              });
    if (published > kControlHistory)
        std::printf("  (history ring holds the last %zu; versions "
                    "1..%llu aged out)\n",
                    kControlHistory,
                    static_cast<unsigned long long>(
                        published - kControlHistory));

    for (const ControlPageRecord &r : history) {
        const ControlConfig &c = r.cfg;
        const bool active = r.version == published;
        std::printf("\nsnapshot v%llu%s\n",
                    static_cast<unsigned long long>(r.version),
                    active ? "  (active)" : "");
        std::printf("  applied          %.3f s (monotonic)\n",
                    double(r.appliedNs) / 1e9);
        std::printf("  sample rate      %.6f\n", c.sampleRate);
        for (std::size_t i = 0; i < kControlCategorySlots; ++i)
            if (c.categoryRate[i] >= 0.0)
                std::printf("  category %-2zu rate %.6f\n", i,
                            c.categoryRate[i]);
        if (c.firstK != 0)
            std::printf("  first-K          %u per %.3f s\n", c.firstK,
                        c.intervalSec);
        if (c.recordBudget != 0)
            std::printf("  record budget    %llu per %.3f s\n",
                        static_cast<unsigned long long>(c.recordBudget),
                        c.intervalSec);
        if (c.ringMinBlocks != 0 || c.ringMaxBlocks != 0)
            std::printf("  ring bounds      [%zu, %zu] blocks\n",
                        c.ringMinBlocks, c.ringMaxBlocks);
        std::printf("  journal %s, watchdog %s\n",
                    c.journalEnabled ? "on" : "off",
                    c.watchdogEnabled ? "on" : "off");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    if (std::strcmp(argv[1], "--metrics") == 0)
        return argc == 3 ? inspectMetrics(argv[2]) : usage();
    if (std::strcmp(argv[1], "--profile") == 0)
        return argc == 3 ? inspectProfile(argv[2]) : usage();
    if (std::strcmp(argv[1], "--journal") == 0)
        return argc == 3 ? inspectJournal(argv[2]) : usage();
    if (std::strcmp(argv[1], "--arena") == 0)
        return argc == 3 ? inspectArena(argv[2]) : usage();
    if (std::strcmp(argv[1], "--control") == 0)
        return argc == 3 ? inspectControl(argv[2]) : usage();
    if (std::strcmp(argv[1], "--segments") == 0)
        return argc == 3 ? inspectSegments(argv[2]) : usage();
    if (argv[1][0] == '-')
        return usage();  // --help, or a mode this tool does not have
    const std::string input = argv[1];
    std::string json_path, csv_path;
    long head = 0;
    bool show_gaps = false;

    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
            csv_path = argv[++i];
        } else if (std::strcmp(argv[i], "--head") == 0 && i + 1 < argc) {
            head = std::atol(argv[++i]);
        } else if (std::strcmp(argv[i], "--gaps") == 0) {
            show_gaps = true;
        } else {
            return usage();
        }
    }

    auto loaded = readTraceFile(input);
    if (!loaded.ok()) {
        std::fprintf(stderr, "%s\n", loaded.status().toString().c_str());
        return exitCodeFor(loaded.status().code());
    }
    const auto entries = loaded.take();
    Dump dump;
    dump.entries = entries;
    std::printf("%s\n", summarizeDump(dump).c_str());

    if (head > 0) {
        std::printf("first %ld entries:\n", head);
        std::printf("%12s %5s %8s %5s %6s\n", "stamp", "core", "thread",
                    "cat", "size");
        long shown = 0;
        for (const DumpEntry &e : entries) {
            if (shown++ >= head)
                break;
            std::printf("%12llu %5u %8u %5u %6u\n",
                        static_cast<unsigned long long>(e.stamp),
                        e.core, e.thread, e.category, e.size);
        }
    }

    if (show_gaps && !entries.empty()) {
        // Continuity over the persisted stamp sequence itself.
        std::vector<DumpEntry> sorted_entries = entries;
        std::sort(sorted_entries.begin(), sorted_entries.end(),
                  [](const DumpEntry &a, const DumpEntry &b) {
                      return a.stamp < b.stamp;
                  });
        uint64_t gaps = 0, missing = 0, largest = 0;
        for (std::size_t i = 1; i < sorted_entries.size(); ++i) {
            const uint64_t prev = sorted_entries[i - 1].stamp;
            const uint64_t cur = sorted_entries[i].stamp;
            if (cur > prev + 1) {
                ++gaps;
                missing += cur - prev - 1;
                largest = std::max(largest, cur - prev - 1);
            }
        }
        std::printf("stamp continuity: %llu gaps, %llu missing stamps, "
                    "largest gap %llu\n",
                    static_cast<unsigned long long>(gaps),
                    static_cast<unsigned long long>(missing),
                    static_cast<unsigned long long>(largest));
    }

    if (!json_path.empty()) {
        std::ofstream(json_path) << exportChromeJson(entries);
        std::printf("wrote %s\n", json_path.c_str());
    }
    if (!csv_path.empty()) {
        std::ofstream(csv_path) << exportCsv(entries);
        std::printf("wrote %s\n", csv_path.c_str());
    }
    return 0;
}
