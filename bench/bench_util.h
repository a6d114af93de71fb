/**
 * @file
 * Shared helpers for the reproduction bench binaries: flag parsing
 * (--scale, --duration, --seed, --quick, --obs-interval, --obs-json)
 * and uniform headers so all experiment output looks alike.
 * Machine-readable results (BENCH_*.json) go through the common
 * JsonWriter (common/json_writer.h).
 */

#ifndef BTRACE_BENCH_BENCH_UTIL_H
#define BTRACE_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace btrace {

/** Common command-line knobs for experiment binaries. */
struct BenchArgs
{
    double scale = 1.0;      //!< workload rate scale
    double duration = 0.0;   //!< seconds; 0 = workload default (30 s)
    uint64_t seed = 1;
    bool quick = false;      //!< cut runtime for CI-style smoke runs
    double obsInterval = 0.0; //!< sampler period; 0 = final-only
    std::string obsJson;      //!< obs JSON-lines path; empty = off

    static BenchArgs
    parse(int argc, char **argv, double default_scale = 1.0)
    {
        BenchArgs args;
        args.scale = default_scale;
        for (int i = 1; i < argc; ++i) {
            const char *a = argv[i];
            auto val = [&](const char *name) -> const char * {
                const std::size_t len = std::strlen(name);
                if (std::strncmp(a, name, len) == 0 && a[len] == '=')
                    return a + len + 1;
                return nullptr;
            };
            if (const char *v = val("--scale")) {
                args.scale = std::atof(v);
            } else if (const char *v2 = val("--duration")) {
                args.duration = std::atof(v2);
            } else if (const char *v3 = val("--seed")) {
                args.seed = std::strtoull(v3, nullptr, 10);
            } else if (const char *v4 = val("--obs-interval")) {
                args.obsInterval = std::atof(v4);
            } else if (const char *v5 = val("--obs-json")) {
                args.obsJson = v5;
            } else if (std::strcmp(a, "--quick") == 0) {
                args.quick = true;
            } else if (std::strcmp(a, "--help") == 0) {
                std::printf("flags: --scale=F --duration=SEC --seed=N "
                            "--obs-interval=SEC --obs-json=PATH "
                            "--quick\n");
                std::exit(0);
            }
        }
        if (args.quick) {
            args.scale *= 0.3;
            if (args.duration == 0.0)
                args.duration = 6.0;
        }
        return args;
    }
};

/** Uniform experiment banner. */
inline void
banner(const char *id, const char *title, const BenchArgs &args)
{
    std::printf("==============================================="
                "=============================\n");
    std::printf("%s — %s\n", id, title);
    std::printf("scale=%.2f duration=%s seed=%llu\n", args.scale,
                args.duration > 0 ? std::to_string(args.duration).c_str()
                                  : "workload default",
                static_cast<unsigned long long>(args.seed));
    std::printf("==============================================="
                "=============================\n");
}

} // namespace btrace

#endif // BTRACE_BENCH_BENCH_UTIL_H
