/**
 * @file
 * Persist-and-export pipeline (§2.1 "Persist vs. In-memory"): a
 * consumer daemon running in-process drains the in-memory buffer into
 * segment files while producers keep tracing, then the persisted
 * trace — far longer than the buffer itself — is read back and
 * exported to Chrome trace-event JSON and CSV for existing tooling
 * (Perfetto, spreadsheets).
 *
 *   $ ./export_trace [output-directory]
 *
 * Segments land in <output-directory>/btrace_example/, numbered after
 * any an earlier run left there (the daemon resumes its directory and
 * never overwrites it); this run reads back only its own. btrace_inspect
 * reads any one of them.
 */

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>

#include "analysis/export.h"
#include "daemon/daemon.h"

using namespace btrace;

int
main(int argc, char **argv)
{
    const std::string dir = argc > 1 ? argv[1] : "/tmp";

    // Register the tracepoints we will emit.
    TracepointRegistry registry;
    const uint16_t cat_sched = registry.registerTracepoint(
        "sched", 2, "scheduling decision");
    const uint16_t cat_idle = registry.registerTracepoint(
        "idle", 2, "cpuidle state change");
    const uint16_t cat_energy = registry.registerTracepoint(
        "energy", 3, "energy-aware migration");

    // A small buffer: the persisted segments will outgrow it many times.
    BTraceConfig cfg;
    cfg.blockSize = 4096;
    cfg.numBlocks = 64;  // 256 KB
    cfg.activeBlocks = 16;
    cfg.cores = 4;
    auto session = Session::create(cfg);
    if (!session.ok()) {
        std::fprintf(stderr, "%s\n", session.status().toString().c_str());
        return exitCodeFor(session.status().code());
    }

    // The daemon drains the tracer's own session every millisecond,
    // closing partially filled blocks on each pass (§4.3): without
    // that, a napping producer's open block stalls the drain cursor
    // and a fast buffer lap can overrun it. Keep every segment, since
    // all of them are read back below.
    DaemonOptions dopt;
    dopt.outDir = dir + "/btrace_example";
    dopt.drainIntervalSec = 0.001;
    dopt.maxSegments = 0;
    auto made = ConsumerDaemon::make(session.take(), dopt);
    if (!made.ok()) {
        std::fprintf(stderr, "%s\n", made.status().toString().c_str());
        return exitCodeFor(made.status().code());
    }
    ConsumerDaemon &daemon = *made.value();
    BTrace &tracer = daemon.session().tracer();
    daemon.start();

    std::atomic<uint64_t> stamp{0};
    std::vector<std::thread> producers;
    for (unsigned core = 0; core < cfg.cores; ++core) {
        producers.emplace_back([&, core]() {
            for (int i = 0; i < 30000; ++i) {
                const uint64_t s =
                    stamp.fetch_add(1, std::memory_order_relaxed) + 1;
                const uint16_t cat = s % 97 == 0
                                         ? cat_energy
                                         : (s % 3 ? cat_sched : cat_idle);
                tracer.record(uint16_t(core), core, s, 40, cat);
                if (i % 2000 == 0) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                }
            }
        });
    }
    for (auto &p : producers)
        p.join();
    daemon.stop();

    std::vector<DumpEntry> loaded;
    const uint64_t first = daemon.firstSegmentIndex();
    const uint64_t segments = daemon.stats().segmentsOpened;
    for (uint64_t i = first; i < first + segments; ++i) {
        auto seg = readTraceFile(daemonSegmentPath(dopt.outDir, i));
        if (!seg.ok()) {
            std::fprintf(stderr, "%s\n", seg.status().toString().c_str());
            return exitCodeFor(seg.status().code());
        }
        loaded.insert(loaded.end(), seg.value().begin(),
                      seg.value().end());
    }
    std::printf("in-memory buffer: %zu KB; persisted %zu entries "
                "(%llu produced) in %llu segment(s) under %s\n",
                tracer.capacityBytes() >> 10, loaded.size(),
                static_cast<unsigned long long>(stamp.load()),
                static_cast<unsigned long long>(segments),
                dopt.outDir.c_str());

    ExportOptions eopt;
    eopt.registry = &registry;

    const std::string json_path = dir + "/btrace_example.json";
    std::ofstream(json_path) << exportChromeJson(loaded, eopt);
    const std::string csv_path = dir + "/btrace_example.csv";
    std::ofstream(csv_path) << exportCsv(loaded, eopt);

    Dump as_dump;
    as_dump.entries = loaded;
    std::printf("\n%s\n", summarizeDump(as_dump, eopt).c_str());
    std::printf("wrote %s (open in chrome://tracing or Perfetto) and "
                "%s\n", json_path.c_str(), csv_path.c_str());
    return loaded.empty() ? 1 : 0;
}
