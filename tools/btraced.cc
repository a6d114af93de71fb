/**
 * @file
 * btraced — the out-of-process consumer daemon (DESIGN.md §11).
 *
 *   btraced --arena PATH [--out DIR] [options]     attach and drain
 *   btraced --arena PATH --create [geometry]       create, then drain
 *   btraced --fd N [--out DIR] [options]           inherited arena fd
 *
 * Attaches to a shared file arena (or creates one for producers to
 * join), then drains it continuously into rotating bounded segment
 * files (trace_file.h format — btrace_inspect reads them directly) and
 * sweeps leases of producers that died, until the duration elapses or
 * SIGINT/SIGTERM arrives. Exit codes follow exitCodeFor(): scripts can
 * branch on 3 (no such arena), 5 (corrupt), 6 (incompatible
 * generation), 7 (arena busy / registry full), ...
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "trace/trace_file.h"

#include "control/control_file.h"
#include "control/governor.h"
#include "daemon/daemon.h"
#include "obs/export.h"

using namespace btrace;

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_hup = 0;

void
onSignal(int)
{
    g_stop = 1;
}

void
onHup(int)
{
    g_hup = 1;
}

/**
 * Rewrite the Prometheus snapshot atomically: write a sibling tmp
 * file, then rename over the target so a scraper never reads a torn
 * half. Called every drain interval and at exit, so even a SIGKILLed
 * daemon leaves a snapshot at most one interval stale.
 */
bool
writeMetricsFile(const MetricsRegistry &registry,
                 const std::string &path)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp);
        if (!out)
            return false;
        out << renderPrometheus(registry.collect(),
                                {{"daemon", "btraced"}});
        if (!out.flush())
            return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: btraced --arena PATH [--create] [--fd N]\n"
        "               [--out DIR] [--segment-bytes N] "
        "[--max-segments N]\n"
        "               [--interval-ms N] [--sweep-every N]\n"
        "               [--duration SEC] [--close-active 0|1]\n"
        "               [--expect-generation N] [--metrics-out PATH]\n"
        "               [--control-file PATH] [--governor 0|1]\n"
        "               [--governor-interval-ms N]\n"
        "create-mode geometry: [--blocks N] [--active N]\n"
        "               [--block-bytes N] [--cores N]\n"
        "The control file (key = value; see control_file.h) is read at\n"
        "startup and re-applied on SIGHUP or when its mtime changes.\n");
    return exitCodeFor(StatusCode::InvalidArgument);
}

struct Flags
{
    std::string arena;
    int fd = -1;
    bool create = false;
    std::string outDir = "btraced-out";
    std::string metricsOut;
    std::string controlFile;
    bool governor = true;
    double governorIntervalSec = 1.0;
    DaemonOptions daemon;
    double durationSec = 0.0;  // 0 = until signal
    uint64_t expectGeneration = 0;
    // create-mode geometry
    std::size_t blocks = 3072, active = 192, blockBytes = 4096;
    unsigned cores = 12;
};

} // namespace

int
main(int argc, char **argv)
{
    Flags f;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (std::strcmp(a, "--arena") == 0 && (v = next())) {
            f.arena = v;
        } else if (std::strcmp(a, "--fd") == 0 && (v = next())) {
            f.fd = std::atoi(v);
        } else if (std::strcmp(a, "--create") == 0) {
            f.create = true;
        } else if (std::strcmp(a, "--out") == 0 && (v = next())) {
            f.outDir = v;
        } else if (std::strcmp(a, "--segment-bytes") == 0 &&
                   (v = next())) {
            f.daemon.segmentBytes = std::strtoull(v, nullptr, 10);
        } else if (std::strcmp(a, "--max-segments") == 0 &&
                   (v = next())) {
            f.daemon.maxSegments = std::strtoull(v, nullptr, 10);
        } else if (std::strcmp(a, "--interval-ms") == 0 &&
                   (v = next())) {
            f.daemon.drainIntervalSec = std::atof(v) / 1000.0;
        } else if (std::strcmp(a, "--sweep-every") == 0 &&
                   (v = next())) {
            f.daemon.sweepEveryNDrains = unsigned(std::atoi(v));
        } else if (std::strcmp(a, "--duration") == 0 && (v = next())) {
            f.durationSec = std::atof(v);
        } else if (std::strcmp(a, "--close-active") == 0 &&
                   (v = next())) {
            f.daemon.closeActive = std::atoi(v) != 0;
        } else if (std::strcmp(a, "--expect-generation") == 0 &&
                   (v = next())) {
            f.expectGeneration = std::strtoull(v, nullptr, 10);
        } else if (std::strcmp(a, "--metrics-out") == 0 &&
                   (v = next())) {
            f.metricsOut = v;
        } else if (std::strcmp(a, "--control-file") == 0 &&
                   (v = next())) {
            f.controlFile = v;
        } else if (std::strcmp(a, "--governor") == 0 && (v = next())) {
            f.governor = std::atoi(v) != 0;
        } else if (std::strcmp(a, "--governor-interval-ms") == 0 &&
                   (v = next())) {
            f.governorIntervalSec = std::atof(v) / 1000.0;
        } else if (std::strcmp(a, "--blocks") == 0 && (v = next())) {
            f.blocks = std::strtoull(v, nullptr, 10);
        } else if (std::strcmp(a, "--active") == 0 && (v = next())) {
            f.active = std::strtoull(v, nullptr, 10);
        } else if (std::strcmp(a, "--block-bytes") == 0 &&
                   (v = next())) {
            f.blockBytes = std::strtoull(v, nullptr, 10);
        } else if (std::strcmp(a, "--cores") == 0 && (v = next())) {
            f.cores = unsigned(std::atoi(v));
        } else {
            return usage();
        }
    }
    if (f.arena.empty() && f.fd < 0)
        return usage();
    f.daemon.outDir = f.outDir;

    // Control plane (DESIGN.md §12): the control file is the
    // operator's knob. Parse and validate it before the arena or the
    // output directory exists, so a malformed file leaves nothing
    // behind. The watcher is primed first, so a rewrite that lands
    // while the arena is being created is still picked up.
    ControlFileWatcher watcher(f.controlFile);
    ControlConfig initialControl;
    if (!f.controlFile.empty()) {
        (void)watcher.changed();
        auto cc = loadControlFile(f.controlFile);
        if (!cc.ok()) {
            std::fprintf(stderr, "btraced: %s\n",
                         cc.status().toString().c_str());
            return exitCodeFor(cc.status().code());
        }
        initialControl = cc.value();
    }

    // Rendezvous: create the arena, or join one that exists.
    Expected<Session> sess = Expected<Session>(Session());
    if (f.create) {
        BTraceConfig cfg;
        cfg.storage = StorageKind::File;
        cfg.arenaPath = f.arena;
        cfg.numBlocks = f.blocks;
        cfg.activeBlocks = f.active;
        cfg.blockSize = f.blockBytes;
        cfg.cores = f.cores;
        sess = Session::create(cfg);
    } else {
        AttachOptions ao;
        ao.expectGeneration = f.expectGeneration;
        sess = f.fd >= 0 ? Session::attachFd(f.fd, ao)
                         : Session::attachFile(f.arena, ao);
    }
    if (!sess.ok()) {
        std::fprintf(stderr, "btraced: %s\n",
                     sess.status().toString().c_str());
        return exitCodeFor(sess.status().code());
    }
    std::fprintf(stderr,
                 "btraced: %s arena (generation %llu), draining to %s\n",
                 sess.value().owner() ? "created" : "attached",
                 static_cast<unsigned long long>(
                     sess.value().generation()),
                 f.outDir.c_str());

    auto daemon = ConsumerDaemon::make(sess.take(), f.daemon);
    if (!daemon.ok()) {
        std::fprintf(stderr, "btraced: %s\n",
                     daemon.status().toString().c_str());
        return exitCodeFor(daemon.status().code());
    }
    ConsumerDaemon &d = *daemon.value();

    // The parsed control file is applied now that the geometry it is
    // checked against exists, then re-applied on SIGHUP or whenever
    // its mtime moves; applyControl on this attachment publishes to
    // the arena control page, so live producers in other processes
    // adopt it on their next poll.
    const auto applyControlFile = [&]() -> Status {
        auto cc = loadControlFile(f.controlFile);
        if (!cc.ok())
            return cc.status();
        return d.session().applyControl(cc.value());
    };
    if (!f.controlFile.empty()) {
        if (Status st = d.session().applyControl(initialControl);
            !st.ok()) {
            std::fprintf(stderr, "btraced: %s\n",
                         st.toString().c_str());
            return exitCodeFor(st.code());
        }
        std::fprintf(
            stderr, "btraced: control v%llu from %s\n",
            static_cast<unsigned long long>(
                d.session()->controlPlane().version()),
            f.controlFile.c_str());
    }

    MetricsRegistry registry;
    d.registerMetrics(registry);
    Governor governor;
    governor.registerMetrics(registry);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGHUP, onHup);

    d.start();
    const auto t0 = std::chrono::steady_clock::now();
    auto lastGovern = t0;
    auto lastMetrics = t0;
    const double metricsIntervalSec =
        std::max(f.daemon.drainIntervalSec, 0.05);
    DaemonStats prev = d.stats();
    while (g_stop == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

        // Keep the on-disk metrics snapshot fresh while running, not
        // only at clean exit: a crashed or SIGKILLed daemon must still
        // leave a recent snapshot behind for the post-mortem.
        if (!f.metricsOut.empty()) {
            const auto nowM = std::chrono::steady_clock::now();
            if (std::chrono::duration<double>(nowM - lastMetrics)
                    .count() >= metricsIntervalSec) {
                lastMetrics = nowM;
                if (!writeMetricsFile(registry, f.metricsOut))
                    std::fprintf(stderr,
                                 "btraced: cannot write %s\n",
                                 f.metricsOut.c_str());
            }
        }

        // Reconfiguration sources: SIGHUP / control-file rewrite, and
        // versions other attachments published to the arena page.
        if (!f.controlFile.empty() && (g_hup != 0 || watcher.changed())) {
            g_hup = 0;
            if (Status st = applyControlFile(); !st.ok())
                std::fprintf(stderr, "btraced: control reload: %s\n",
                             st.toString().c_str());
            else
                std::fprintf(
                    stderr, "btraced: control v%llu applied\n",
                    static_cast<unsigned long long>(
                        d.session()->controlPlane().version()));
        }
        (void)d.session().pollControl();

        const auto now = std::chrono::steady_clock::now();
        if (f.governor &&
            std::chrono::duration<double>(now - lastGovern).count() >=
                f.governorIntervalSec) {
            lastGovern = now;
            const DaemonStats cur = d.stats();
            BTrace &bt = d.session().tracer();
            const ControlConfig cc = bt.controlPlane().current();
            GovernorInput in;
            in.overwrittenDelta =
                cur.overwrittenPositions - prev.overwrittenPositions;
            in.recordedDelta = cur.entries - prev.entries;
            const double drained_bytes =
                double(cur.entries - prev.entries) *
                double(sizeof(TraceDiskRecord));
            const double capacity =
                double(bt.numBlocks()) * double(bt.config().blockSize);
            in.occupancy =
                capacity > 0.0
                    ? std::min(1.0, drained_bytes / capacity)
                    : 0.0;
            in.numBlocks = bt.numBlocks();
            in.activeBlocks = bt.config().activeBlocks;
            in.ringMinBlocks = cc.ringMinBlocks;
            in.ringMaxBlocks = cc.ringMaxBlocks;
            in.sampleRate = cc.sampleRate;
            governor.actuate(bt, governor.evaluate(in));
            prev = cur;
        }

        if (f.durationSec > 0.0 &&
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                    .count() >= f.durationSec)
            break;
    }
    d.stop();

    const DaemonStats st = d.stats();
    std::fprintf(stderr,
                 "btraced: %llu drains, %llu entries, %llu segments, "
                 "%llu sweeps, %llu leases reclaimed (%llu bytes), "
                 "%llu attachments cleared, %llu positions lost, "
                 "%llu blocks skipped\n",
                 static_cast<unsigned long long>(st.drains),
                 static_cast<unsigned long long>(st.entries),
                 static_cast<unsigned long long>(st.segmentsOpened),
                 static_cast<unsigned long long>(st.sweeps),
                 static_cast<unsigned long long>(st.reclaimedLeases),
                 static_cast<unsigned long long>(st.reclaimedBytes),
                 static_cast<unsigned long long>(st.clearedAttachments),
                 static_cast<unsigned long long>(
                     st.overwrittenPositions),
                 static_cast<unsigned long long>(st.skippedBlocks));

    // Final rewrite after the stop-drain so the snapshot carries the
    // complete totals (this also covers SIGINT/SIGTERM exits — the
    // loop above breaks on the signal and falls through to here).
    if (!f.metricsOut.empty() &&
        !writeMetricsFile(registry, f.metricsOut)) {
        std::fprintf(stderr, "btraced: cannot write %s\n",
                     f.metricsOut.c_str());
        return exitCodeFor(StatusCode::IoError);
    }
    return 0;
}
