/**
 * @file
 * BTrace → MetricsRegistry adapter (DESIGN.md §8).
 *
 * BTraceObs owns a registry populated with everything a dashboard
 * needs from one live BTrace instance:
 *
 *  - the raw event counters (as Prometheus counters, `_total` names),
 *    read through BTraceCounters::Snapshot so each collect() sees one
 *    coherent copy instead of fifteen independently torn loads;
 *  - derived gauges: effectivity ratio (fraction of opened block
 *    bytes carrying real entries rather than dummies/headers),
 *    dummy-byte overhead fraction, leased-outstanding bytes, consumer
 *    lag in positions, head position, capacity/resident bytes, and
 *    the per-metadata-slot occupancy tallies (complete / open /
 *    incomplete, §3.2).
 *
 * The adapter also builds the watchdog's HealthInput, and tracks the
 * consumer position: a streaming consumer calls noteConsumerPosition()
 * after each incremental read, which arms the lag gauge and the
 * ConsumerLagGrowth heuristic. Every callback is safe against live
 * producers (atomic reads only).
 */

#ifndef BTRACE_OBS_BTRACE_METRICS_H
#define BTRACE_OBS_BTRACE_METRICS_H

#include <atomic>
#include <cstdint>

#include "core/btrace.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/watchdog.h"

namespace btrace {

/**
 * Export a CostProfiler into @p reg as the `btrace_profile_*` family:
 * one `btrace_profile_<phase>_ns` histogram per fast-path phase, a
 * `btrace_profile_samples_total` counter (probes across all phases),
 * and the `btrace_profile_ns_per_tick` / `btrace_profile_probe_overhead_ns`
 * calibration gauges. @p profiler must outlive @p reg's collectors.
 */
void registerProfilerMetrics(MetricsRegistry &reg,
                             const CostProfiler &profiler);

/** Registry + health-input provider for one BTrace instance. */
class BTraceObs
{
  public:
    explicit BTraceObs(BTrace &tracer);

    MetricsRegistry &registry() { return reg; }
    const MetricsRegistry &registry() const { return reg; }

    /**
     * Record the consumer's cursor after an incremental read. Arms
     * the consumer-lag gauge (head position minus noted position) and
     * the watchdog's lag heuristic; before the first note, the lag
     * gauge reports the full head position (nothing consumed yet) and
     * the lag heuristic stays disarmed.
     */
    void
    noteConsumerPosition(uint64_t pos)
    {
        consumerPos.store(pos, std::memory_order_relaxed);
        consumerSeen.store(true, std::memory_order_relaxed);
    }

    /** Current lag gauge value, in positions. */
    double consumerLagPositions() const;

    /** Build the watchdog's per-interval input (seq/t left to caller). */
    HealthInput healthInput() const;

    /**
     * Effectivity ratio (§3/§4): of all bytes in blocks the tracer
     * opened (advances x blockSize), the fraction carrying normal
     * entries — i.e. not block headers and not dummy fill. 1.0 until
     * the first advancement.
     */
    static double effectivityRatio(const BTraceCounters::Snapshot &s,
                                   std::size_t block_size);

    /** Dummy fill as a fraction of opened block bytes. */
    static double dummyOverheadFraction(
        const BTraceCounters::Snapshot &s, std::size_t block_size);

  private:
    BTrace &bt;
    MetricsRegistry reg;
    std::atomic<uint64_t> consumerPos{0};
    std::atomic<bool> consumerSeen{false};
};

} // namespace btrace

#endif // BTRACE_OBS_BTRACE_METRICS_H
