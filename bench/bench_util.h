/**
 * @file
 * Shared helpers for the reproduction bench binaries: flag parsing
 * (--scale, --duration, --seed, --quick, --obs-interval, --obs-json),
 * uniform headers so all experiment output looks alike, and a small
 * streaming JSON writer so every bench emits machine-readable results
 * (BENCH_*.json) with the same formatting.
 */

#ifndef BTRACE_BENCH_BENCH_UTIL_H
#define BTRACE_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

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

/**
 * Streaming writer for the BENCH_*.json result files: tracks nesting
 * and element commas so call sites only name keys and values. Output
 * is pretty-printed with two-space indents. Not a general-purpose
 * serializer — just enough for flat result dictionaries with nested
 * objects and numeric arrays.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(const std::string &path)
        : fp(std::fopen(path.c_str(), "w"))
    {
    }

    ~JsonWriter()
    {
        if (fp != nullptr)
            close();
    }

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    bool ok() const { return fp != nullptr; }

    void
    beginObject(const char *key = nullptr)
    {
        item(key);
        std::fputs("{", fp);
        first.push_back(true);
    }

    void
    beginArray(const char *key = nullptr)
    {
        item(key);
        std::fputs("[", fp);
        first.push_back(true);
    }

    void
    endObject()
    {
        pop();
        std::fputs("}", fp);
    }

    void
    endArray()
    {
        pop();
        std::fputs("]", fp);
    }

    void
    field(const char *key, double v)
    {
        item(key);
        std::fprintf(fp, "%.4f", v);
    }

    void
    field(const char *key, unsigned long long v)
    {
        item(key);
        std::fprintf(fp, "%llu", v);
    }

    void
    element(double v)
    {
        item(nullptr);
        std::fprintf(fp, "%.4f", v);
    }

    void
    element(const std::string &v)
    {
        item(nullptr);
        std::fprintf(fp, "\"%s\"", escaped(v).c_str());
    }

    /** Finish the document (closes the file; further calls invalid). */
    void
    close()
    {
        std::fputs("\n", fp);
        std::fclose(fp);
        fp = nullptr;
    }

  private:
    static std::string
    escaped(const std::string &s)
    {
        std::string out;
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out;
    }

    void
    item(const char *key)
    {
        if (!first.empty()) {
            if (!first.back())
                std::fputs(",", fp);
            first.back() = false;
            std::fprintf(fp, "\n%*s", int(2 * first.size()), "");
        }
        if (key != nullptr)
            std::fprintf(fp, "\"%s\": ", key);
    }

    void
    pop()
    {
        const bool empty = first.back();
        first.pop_back();
        if (!empty)
            std::fprintf(fp, "\n%*s", int(2 * first.size()), "");
    }

    FILE *fp;
    std::vector<bool> first;
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
