/**
 * @file
 * Serialization of the observability plane (DESIGN.md §8).
 *
 * Two wire formats over the same registry:
 *
 *  - Prometheus text exposition format, rendered from a one-shot
 *    MetricsRegistry::Collected: `# HELP` / `# TYPE` preambles,
 *    counters with their `_total` names, and histograms in the native
 *    histogram form (cumulative `le`-bounded `_bucket` series over the
 *    occupied log-linear buckets, the mandatory `+Inf` bucket, `_sum`,
 *    `_count`). Suitable for dumping to a file a node_exporter
 *    textfile collector scrapes, or serving verbatim from any HTTP
 *    handler.
 *
 *  - JSON-lines, rendered from an ObsSample (one StatsSampler
 *    interval): sequence number, timestamp, labels, cumulative
 *    counters, per-second rates, gauges, histogram quantiles, and any
 *    health events that fired. One self-contained JSON object per
 *    line, so `tail -f | jq` works mid-run.
 *
 * parseObsLine() is the inverse of the JSON renderer for exactly the
 * schema emitted here — it exists so btrace_inspect and the tests can
 * round-trip obs files without an external JSON dependency. It is not
 * a general JSON parser.
 */

#ifndef BTRACE_OBS_EXPORT_H
#define BTRACE_OBS_EXPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/watchdog.h"

namespace btrace {

/** `key="value"` pairs attached to every exported series/line. */
using ObsLabels = std::vector<std::pair<std::string, std::string>>;

/** One sampling interval, ready to serialize. */
struct ObsSample
{
    uint64_t seq = 0;     //!< monotone per-sampler sequence
    double tSec = 0.0;    //!< seconds since sampler construction
    ObsLabels labels;
    /** Cumulative counter values, registration order. */
    std::vector<std::pair<std::string, double>> counters;
    /** Per-second counter rates over the previous interval. */
    std::vector<std::pair<std::string, double>> rates;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramValue> histograms;
    std::vector<HealthEvent> health;
};

/** Render one ObsSample as a single JSON object (no newline). */
std::string renderJsonLine(const ObsSample &sample);

/**
 * Render a collected registry in Prometheus text exposition format
 * (version 0.0.4). @p labels are attached to every series.
 */
std::string renderPrometheus(const MetricsRegistry::Collected &collected,
                             const ObsLabels &labels = {});

/** parseObsLine() result: the flat numeric view of one JSON line. */
struct ParsedObsLine
{
    bool ok = false;          //!< parse succeeded and shape matched
    std::string error;        //!< first problem found when !ok
    uint64_t seq = 0;
    double tSec = 0.0;
    std::map<std::string, std::string> labels;
    std::map<std::string, double> counters;
    std::map<std::string, double> rates;
    std::map<std::string, double> gauges;
    /** histogram name → field ("count"/"p50"/"p99"/"p999"/"max") → value */
    std::map<std::string, std::map<std::string, double>> histograms;
    std::vector<std::string> healthKinds;
};

/** Parse one line previously produced by renderJsonLine(). */
ParsedObsLine parseObsLine(const std::string &line);

} // namespace btrace

#endif // BTRACE_OBS_EXPORT_H
