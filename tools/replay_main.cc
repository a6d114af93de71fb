/**
 * @file
 * replay — run one deterministic replay with live observability.
 *
 *   replay [--tracer=btrace|bbq|ftrace|lttng|vtrace]
 *          [--workload=NAME] [--duration=SEC] [--scale=F] [--seed=N]
 *          [--lease=N] [--obs-interval=SEC] [--obs-json=PATH]
 *          [--obs-prom=PATH] [--journal-out=PATH] [--flight-out=PATH]
 *          [--backend=private|shm|file] [--arena=PATH]
 *          [--profile] [--list-workloads]
 *
 * The virtual-time replay engine (§5) drives the chosen tracer with
 * the chosen workload while a StatsSampler watches the same instance
 * from a real background thread: counter rates, derived gauges, and
 * the health watchdog. Samples stream to --obs-json as JSON-lines
 * while the run is in flight; a final Prometheus text dump of the
 * full registry goes to --obs-prom. Baseline tracers have no
 * counters or gauges; --profile exports the btrace_profile_* phase
 * family for every tracer. The summary line prints the modeled write
 * latency p50/p99 (ReplayResult::latencyNs) for every tracer.
 *
 * BTrace runs additionally carry the lifecycle journal: --journal-out
 * writes a Chrome trace-event JSON (drag into ui.perfetto.dev) that
 * combines the dumped entries with the tracer's own block/lease/resize
 * transitions, and --flight-out arms the flight recorder — the first
 * watchdog trip dumps a post-mortem bundle there (end of run if the
 * watchdog never fired). Both flags warn and do nothing for baselines.
 *
 * --backend selects the BTrace storage backend (DESIGN.md §10);
 * --backend=file with --arena=PATH leaves a persistent ring behind
 * that `btrace_inspect --arena PATH` decodes after the run.
 */

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "analysis/continuity.h"
#include "common/status.h"
#include "control/control_file.h"
#include "analysis/export.h"
#include "obs/btrace_metrics.h"
#include "obs/flight_recorder.h"
#include "obs/journal.h"
#include "obs/sampler.h"
#include "sim/replay.h"
#include "workloads/catalog.h"

using namespace btrace;

namespace {

struct Flags
{
    std::string tracer = "btrace";
    std::string workload = "eShop-1";
    double duration = 2.0;
    double scale = 1.0;
    uint64_t seed = 1;
    uint32_t leaseEntries = 0;
    double obsInterval = 0.0;  //!< 0 = single final sample
    std::string obsJson;
    std::string obsProm;
    std::string journalOut;    //!< Chrome trace-event JSON (Perfetto)
    std::string flightOut;     //!< flight-recorder bundle path
    std::string backend;       //!< empty = build default
    std::string arena;         //!< file backend: persistent ring path
    std::string controlFile;   //!< initial control config (§12)
    bool profile = false;      //!< arm the phase-cost profiler (§14)
};

int
usage()
{
    std::fprintf(
        stderr,
        "usage: replay [--tracer=btrace|bbq|ftrace|lttng|vtrace]\n"
        "              [--workload=NAME] [--duration=SEC] [--scale=F]\n"
        "              [--seed=N] [--lease=N] [--obs-interval=SEC]\n"
        "              [--obs-json=PATH] [--obs-prom=PATH]\n"
        "              [--journal-out=PATH] [--flight-out=PATH]\n"
        "              [--backend=private|shm|file] [--arena=PATH]\n"
        "              [--control-file=PATH] [--profile]\n"
        "              [--list-workloads]\n");
    return exitCodeFor(StatusCode::InvalidArgument);
}

TracerKind
kindByName(const std::string &name)
{
    for (const TracerKind k : allTracerKinds()) {
        std::string n = tracerKindName(k);
        for (char &c : n) c = char(std::tolower(c));
        if (n == name) return k;
    }
    std::fprintf(stderr, "unknown tracer '%s'\n", name.c_str());
    std::exit(exitCodeFor(StatusCode::InvalidArgument));
}

} // namespace

int
main(int argc, char **argv)
{
    Flags f;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto val = [&](const char *name) -> const char * {
            const std::size_t len = std::strlen(name);
            if (std::strncmp(a, name, len) == 0 && a[len] == '=')
                return a + len + 1;
            return nullptr;
        };
        if (const char *v1 = val("--tracer")) {
            f.tracer = v1;
        } else if (const char *v2 = val("--workload")) {
            f.workload = v2;
        } else if (const char *v3 = val("--duration")) {
            f.duration = std::atof(v3);
        } else if (const char *v4 = val("--scale")) {
            f.scale = std::atof(v4);
        } else if (const char *v5 = val("--seed")) {
            f.seed = std::strtoull(v5, nullptr, 10);
        } else if (const char *v6 = val("--lease")) {
            f.leaseEntries = uint32_t(std::atoi(v6));
        } else if (const char *v7 = val("--obs-interval")) {
            f.obsInterval = std::atof(v7);
        } else if (const char *v8 = val("--obs-json")) {
            f.obsJson = v8;
        } else if (const char *v9 = val("--obs-prom")) {
            f.obsProm = v9;
        } else if (const char *v10 = val("--journal-out")) {
            f.journalOut = v10;
        } else if (const char *v11 = val("--flight-out")) {
            f.flightOut = v11;
        } else if (const char *v12 = val("--backend")) {
            f.backend = v12;
        } else if (const char *v13 = val("--arena")) {
            f.arena = v13;
        } else if (const char *v14 = val("--control-file")) {
            f.controlFile = v14;
        } else if (std::strcmp(a, "--profile") == 0) {
            f.profile = true;
        } else if (std::strcmp(a, "--list-workloads") == 0) {
            for (const Workload &w : workloadCatalog())
                std::printf("%s\n", w.name.c_str());
            return 0;
        } else {
            return usage();
        }
    }

    const TracerKind kind = kindByName(f.tracer);
    const Workload &wl = workloadByName(f.workload);
    TracerFactoryOptions topt;
    StorageKind storage = StorageKind::Private;
    if (!f.backend.empty()) {
        if (!parseStorageKind(f.backend, storage)) {
            std::fprintf(stderr, "unknown backend '%s'\n",
                         f.backend.c_str());
            return exitCodeFor(StatusCode::InvalidArgument);
        }
        if (kind != TracerKind::BTrace) {
            std::fprintf(stderr,
                         "warning: --backend/--arena need the btrace "
                         "tracer; ignored for '%s'\n",
                         f.tracer.c_str());
        } else {
            topt.storage = &storage;
            topt.arenaPath = f.arena;
        }
    } else if (!f.arena.empty()) {
        std::fprintf(stderr, "--arena requires --backend=file\n");
        return exitCodeFor(StatusCode::InvalidArgument);
    }
    auto tracer = makeTracer(kind, topt);

    // Initial control config (DESIGN.md §12): parse before anything
    // records; parse/validate failures exit with the mapped code so
    // scripts can branch on 2 (invalid) vs 3 (missing file).
    ControlConfig control;
    if (!f.controlFile.empty()) {
        auto cc = loadControlFile(f.controlFile);
        if (!cc.ok()) {
            std::fprintf(stderr, "replay: %s\n",
                         cc.status().toString().c_str());
            return exitCodeFor(cc.status().code());
        }
        control = cc.value();
    }

    // Phase-cost profiler (DESIGN.md §14): armed exactly like the
    // journal — one pointer store; disarmed sites pay a relaxed load.
    // Hardware counters ride along when perf_event_open is permitted;
    // otherwise the run degrades to TSC-only with a warning.
    std::unique_ptr<CostProfiler> profiler;
    ThreadPerfCounters perfCtrs;
    if (f.profile) {
        profiler = std::make_unique<CostProfiler>();
        tracer->attachProfiler(profiler.get());
        if (!perfCtrs.open())
            std::fprintf(stderr,
                         "replay: hardware counters off — %s; "
                         "TSC-only profile\n",
                         perfCtrs.error().c_str());
    }

    std::unique_ptr<BTraceObs> btObs;
    std::unique_ptr<EventJournal> journal;
    std::unique_ptr<FlightRecorder> flight;
    MetricsRegistry baselineReg;
    const MetricsRegistry *reg = &baselineReg;
    BTrace *btp = dynamic_cast<BTrace *>(tracer.get());
    if (btp != nullptr) {
        if (!f.controlFile.empty()) {
            if (Status st = btp->applyControl(control); !st.ok()) {
                // Geometry-dependent rules (ring bounds vs A) are
                // only checkable here, after the tracer exists.
                std::fprintf(stderr, "replay: %s\n",
                             st.toString().c_str());
                return exitCodeFor(st.code());
            }
            std::fprintf(stderr, "replay: control v%llu from %s\n",
                         static_cast<unsigned long long>(
                             btp->controlPlane().version()),
                         f.controlFile.c_str());
        }
        btObs = std::make_unique<BTraceObs>(*btp);
        reg = &btObs->registry();
        // The journal toggle is honored at tool level: an operator
        // turning `journal = off` in the control file wins over the
        // output flags.
        if ((!f.journalOut.empty() || !f.flightOut.empty()) &&
            control.journalEnabled) {
            journal = std::make_unique<EventJournal>();
            btp->attachJournal(journal.get());
        }
        if (!f.flightOut.empty()) {
            FlightRecorderOptions fo;
            fo.path = f.flightOut;
            flight = std::make_unique<FlightRecorder>(*btp, journal.get(),
                                                      fo);
        }
    } else {
        if (!f.journalOut.empty() || !f.flightOut.empty())
            std::fprintf(stderr,
                         "warning: --journal-out/--flight-out need the "
                         "btrace tracer; ignored for '%s'\n",
                         f.tracer.c_str());
        if (!f.controlFile.empty())
            std::fprintf(stderr,
                         "warning: --control-file needs the btrace "
                         "tracer; ignored for '%s'\n",
                         f.tracer.c_str());
    }

    if (profiler)
        registerProfilerMetrics(btObs ? btObs->registry() : baselineReg,
                                *profiler);

    SamplerOptions so;
    so.intervalSec = f.obsInterval > 0 ? f.obsInterval : 1.0;
    so.jsonPath = f.obsJson;
    so.labels = {{"tracer", tracerKindName(kind)},
                 {"workload", wl.name}};
    StatsSampler sampler(*reg, so);
    // `watchdog = off` in the control file disables the health
    // watchdog (and with it the flight recorder's trip hook).
    if (btObs && control.watchdogEnabled)
        sampler.setHealthSource(
            [&btObs]() { return btObs->healthInput(); });
    if (journal)
        sampler.setJournal(journal.get());
    if (flight) {
        // First watchdog trip captures the post-mortem bundle; later
        // trips overwrite it (the freshest state is the useful one).
        // The trigger is formatted into a stack buffer: the trip path
        // is allocation-free end to end, so it still works when the
        // trip is caused by memory exhaustion.
        sampler.setHealthEventHook([&flight](const HealthEvent &e) {
            char trigger[64];
            std::snprintf(trigger, sizeof(trigger), "watchdog:%s",
                          healthKindName(e.kind));
            flight->dump(trigger);
        });
    }
    if (f.obsInterval > 0)
        sampler.start();

    ReplayOptions opt;
    opt.mode = ReplayMode::ThreadLevel;
    opt.durationSec = f.duration;
    opt.rateScale = f.scale;
    opt.seed = f.seed;
    opt.leaseEntries = f.leaseEntries;
    ReplayResult res = replay(*tracer, wl, opt);

    if (f.obsInterval > 0)
        sampler.stop();  // takes the final sample
    else
        sampler.sampleOnce();

    const ContinuityReport rep = analyzeContinuity(res);
    std::printf("%s on %s: %.2f virtual s, %zu produced, %llu drops, "
                "latest fragment %.2f MB, loss %.2f%%, "
                "modeled latency p50 %.0f ns p99 %.0f ns\n",
                res.tracerName.c_str(), res.workloadName.c_str(),
                f.duration, res.produced.size(),
                static_cast<unsigned long long>(res.drops),
                rep.latestFragmentBytes / (1024.0 * 1024.0),
                100.0 * rep.lossRate, res.latencyNs.percentile(0.50),
                res.latencyNs.percentile(0.99));
    std::printf("obs: %llu samples",
                static_cast<unsigned long long>(sampler.samplesTaken()));
    if (!f.obsJson.empty())
        std::printf(", json-lines -> %s", f.obsJson.c_str());
    std::printf("\n");

    const auto health = sampler.healthHistory();
    for (const HealthEvent &e : health)
        std::printf("health[%s] %s\n", healthKindName(e.kind),
                    e.detail.c_str());

    if (!f.obsProm.empty()) {
        std::ofstream out(f.obsProm);
        out << renderPrometheus(reg->collect(), so.labels);
        std::printf("prometheus text -> %s\n", f.obsProm.c_str());
    }

    if (journal && !f.journalOut.empty()) {
        TraceEventExportOptions jopt;
        jopt.activeBlocks = btp->config().activeBlocks;
        const std::vector<JournalRecord> tail = journal->snapshot();
        std::ofstream out(f.journalOut);
        out << exportChromeJsonWithJournal(res.dump.entries, tail,
                                           ExportOptions{}, jopt);
        std::printf("journal trace (tail %zu of %llu emitted) -> %s\n",
                    tail.size(),
                    static_cast<unsigned long long>(journal->emitted()),
                    f.journalOut.c_str());
    }
    if (flight) {
        // The watchdog never fired: still leave a bundle of the final
        // state so the artifact always exists.
        if (flight->dumps() == 0)
            flight->dump("end_of_run");
        std::printf("flight bundle -> %s\n", f.flightOut.c_str());
    }
    if (journal)
        btp->attachJournal(nullptr);
    if (profiler) {
        tracer->attachProfiler(nullptr);
        std::printf("%s", profiler->snapshot().table().c_str());
        if (perfCtrs.ok()) {
            const PerfSample ps = perfCtrs.read();
            std::printf("perf: %llu cycles, %llu cache misses, "
                        "%llu branch misses\n",
                        static_cast<unsigned long long>(ps.cycles),
                        static_cast<unsigned long long>(
                            ps.cacheMisses),
                        static_cast<unsigned long long>(
                            ps.branchMisses));
        }
    }

    // A run that produced nothing or sampled nothing is broken.
    if (res.produced.empty()) {
        std::fprintf(stderr, "FAIL: replay produced no events\n");
        return 1;
    }
    if (sampler.samplesTaken() == 0) {
        std::fprintf(stderr, "FAIL: sampler took no samples\n");
        return 1;
    }
    return 0;
}
