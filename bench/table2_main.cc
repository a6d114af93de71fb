/**
 * @file
 * Table 2 reproduction: latest continuous entries (MB), loss rate,
 * fragment count, and geometric-mean recording latency for all five
 * tracers across the 21 workloads (thread-level replay, 12 MB buffer,
 * 4 KB blocks, A = 16 x C — the §5 setup).
 */

#include <cstdio>
#include <memory>

#include "analysis/continuity.h"
#include "analysis/report.h"
#include "bench_util.h"
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

    JsonWriter jw("BENCH_main.json");
    if (!jw.ok()) {
        std::fprintf(stderr, "cannot write BENCH_main.json\n");
        return 1;
    }
    jw.beginObject();
    jw.field("scale", args.scale);
    jw.field("duration_sec", args.duration);
    jw.field("seed", static_cast<unsigned long long>(args.seed));
    jw.beginArray("workloads");
    for (const std::string &n : names)
        jw.element(n);
    jw.endArray();
    jw.beginObject("tracers");
    for (const TracerMetrics &row : rows) {
        jw.beginObject(row.tracer.c_str());
        const auto metric = [&jw](const char *key,
                                  const std::vector<double> &vals) {
            jw.beginArray(key);
            for (const double v : vals)
                jw.element(v);
            jw.endArray();
        };
        metric("latest_fragment_mb", row.latestFragmentMb);
        metric("loss_rate", row.lossRate);
        metric("fragments", row.fragments);
        metric("latency_geo_ns", row.latencyGeoNs);
        jw.endObject();
    }
    jw.endObject();
    jw.beginObject("headline");
    jw.field("btrace_fragment_mb", bt_frag);
    jw.field("bbq_fragment_mb", bbq_frag);
    jw.field("ftrace_fragment_mb", ft_frag);
    jw.field("btrace_latency_ns", bt_lat);
    jw.field("ftrace_latency_ns", ft_lat);
    jw.endObject();
    jw.endObject();
    jw.close();
    std::printf("wrote BENCH_main.json\n");
    return 0;
}
