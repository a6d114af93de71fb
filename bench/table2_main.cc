/**
 * @file
 * Table 2 reproduction: latest continuous entries (MB), loss rate,
 * fragment count, and geometric-mean recording latency for all five
 * tracers across the 21 workloads (thread-level replay, 12 MB buffer,
 * 4 KB blocks, A = 16 x C — the §5 setup).
 */

#include <cstdio>
#include <fstream>
#include <memory>

#include "analysis/continuity.h"
#include "analysis/report.h"
#include "bench_util.h"
#include "common/json_writer.h"
#include "common/stats.h"
#include "core/btrace.h"
#include "obs/btrace_metrics.h"
#include "obs/sampler.h"
#include "sim/replay.h"
#include "workloads/catalog.h"

using namespace btrace;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    banner("Table 2", "tracer comparison across 21 workloads", args);

    std::vector<std::string> names;
    for (const Workload &w : workloadCatalog())
        names.push_back(w.name);

    std::vector<TracerMetrics> rows;
    bool obsAppend = false;
    for (const TracerKind kind : allTracerKinds()) {
        TracerMetrics row;
        row.tracer = tracerKindName(kind);
        for (const Workload &w : workloadCatalog()) {
            TracerFactoryOptions fo;  // 12 MB, 4 KB blocks, A = 16C
            auto tracer = makeTracer(kind, fo);

            // With --obs-json, every BTrace run appends one labelled
            // obs sample (counters, gauges, health) so the whole table
            // leaves a machine-readable health record.
            std::unique_ptr<BTraceObs> obs;
            std::unique_ptr<StatsSampler> sampler;
            auto *bt = dynamic_cast<BTrace *>(tracer.get());
            if (!args.obsJson.empty() && bt != nullptr) {
                obs = std::make_unique<BTraceObs>(*bt);
                SamplerOptions so;
                so.intervalSec =
                    args.obsInterval > 0 ? args.obsInterval : 1.0;
                so.jsonPath = args.obsJson;
                so.appendJson = obsAppend;
                so.labels = {{"bench", "table2"},
                             {"tracer", row.tracer},
                             {"workload", w.name}};
                obsAppend = true;
                sampler = std::make_unique<StatsSampler>(
                    obs->registry(), so);
                sampler->setHealthSource(
                    [&obs]() { return obs->healthInput(); });
                if (args.obsInterval > 0)
                    sampler->start();
            }

            ReplayOptions opt;
            opt.mode = ReplayMode::ThreadLevel;
            opt.rateScale = args.scale;
            opt.durationSec = args.duration;
            opt.seed = args.seed;
            ReplayResult res = replay(*tracer, w, opt);
            if (sampler) {
                if (args.obsInterval > 0)
                    sampler->stop();
                else
                    sampler->sampleOnce();
            }
            const ContinuityReport rep = analyzeContinuity(res);
            appendMetrics(row, rep, res.latencyNs.geoMean());
            std::fprintf(stderr, "  [%s/%s] done\n",
                         row.tracer.c_str(), w.name.c_str());
        }
        rows.push_back(std::move(row));
    }

    std::printf("%s", renderTable2(names, rows).c_str());

    // §5.2 headline numbers.
    const auto &bt = rows[0];
    const auto &bbq = rows[1];
    const auto &ft = rows[2];
    const double bt_frag = geoMean(bt.latestFragmentMb, 1e-3);
    const double bbq_frag = geoMean(bbq.latestFragmentMb, 1e-3);
    const double ft_frag = geoMean(ft.latestFragmentMb, 1e-3);
    const double bt_lat = geoMean(bt.latencyGeoNs, 1e-3);
    const double ft_lat = geoMean(ft.latencyGeoNs, 1e-3);
    std::printf("== Headline comparison (paper §5.2) ==\n");
    std::printf("latest fragment: BTrace %.1f MB vs BBQ %.1f MB "
                "(-%.1f%%; paper: -6.9%%)\n",
                bt_frag, bbq_frag, 100.0 * (1.0 - bt_frag / bbq_frag));
    std::printf("latest fragment: BTrace/ftrace = %.2fx "
                "(paper: ~2x)\n", bt_frag / ft_frag);
    std::printf("latency: BTrace %.0f ns vs ftrace %.0f ns "
                "(-%.1f%%; paper: 53 vs 63 ns, -20%%)\n",
                bt_lat, ft_lat, 100.0 * (1.0 - bt_lat / ft_lat));

    std::string doc;
    JsonWriter jw(doc);
    jw.beginObject();
    jw.key("scale").fixed(args.scale, 4);
    jw.key("duration_sec").fixed(args.duration, 4);
    jw.field("seed", args.seed);
    jw.key("workloads").beginArray();
    for (const std::string &n : names)
        jw.value(n);
    jw.endArray();
    jw.key("tracers").beginObject();
    for (const TracerMetrics &row : rows) {
        jw.key(row.tracer).beginObject();
        const auto metric = [&jw](const char *key,
                                  const std::vector<double> &vals) {
            jw.key(key).beginArray();
            for (const double v : vals)
                jw.fixed(v, 4);
            jw.endArray();
        };
        metric("latest_fragment_mb", row.latestFragmentMb);
        metric("loss_rate", row.lossRate);
        metric("fragments", row.fragments);
        metric("latency_geo_ns", row.latencyGeoNs);
        jw.endObject();
    }
    jw.endObject();
    jw.key("headline").beginObject();
    jw.key("btrace_fragment_mb").fixed(bt_frag, 4);
    jw.key("bbq_fragment_mb").fixed(bbq_frag, 4);
    jw.key("ftrace_fragment_mb").fixed(ft_frag, 4);
    jw.key("btrace_latency_ns").fixed(bt_lat, 4);
    jw.key("ftrace_latency_ns").fixed(ft_lat, 4);
    jw.endObject();
    jw.endObject();
    std::ofstream out("BENCH_main.json");
    out << doc << '\n';
    if (!out) {
        std::fprintf(stderr, "cannot write BENCH_main.json\n");
        return 1;
    }
    std::printf("wrote BENCH_main.json\n");
    return 0;
}
