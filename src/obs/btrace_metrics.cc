#include "obs/btrace_metrics.h"

#include <algorithm>
#include <string>

#include "trace/event.h"

namespace btrace {

void
registerProfilerMetrics(MetricsRegistry &reg,
                        const CostProfiler &profiler)
{
    for (std::size_t i = 0; i < kProfilePhases; ++i) {
        const auto p = static_cast<ProfilePhase>(i);
        reg.addHistogram(std::string("btrace_profile_") +
                             profilePhaseName(p) + "_ns",
                         std::string("Attributed ns in the ") +
                             profilePhaseName(p) + " phase",
                         &profiler.histogram(p));
    }
    reg.addCounter("btrace_profile_samples_total",
                   "Phase probes recorded across all phases",
                   [&profiler]() {
                       uint64_t n = 0;
                       for (std::size_t i = 0; i < kProfilePhases; ++i)
                           n += profiler
                                    .histogram(
                                        static_cast<ProfilePhase>(i))
                                    .count();
                       return static_cast<double>(n);
                   });
    reg.addGauge("btrace_profile_ns_per_tick",
                 "Calibrated nanoseconds per raw TSC tick",
                 [&profiler]() { return profiler.nsPerTick(); });
    reg.addGauge("btrace_profile_probe_overhead_ns",
                 "Estimated cost of one armed probe pair, subtracted "
                 "per sample",
                 [&profiler]() { return profiler.probeOverheadNs(); });
}

double
BTraceObs::effectivityRatio(const BTraceCounters::Snapshot &s,
                            std::size_t block_size)
{
    const double opened =
        static_cast<double>(s.advances) * static_cast<double>(block_size);
    if (opened <= 0.0) return 1.0;
    const double overhead =
        static_cast<double>(s.dummyBytes) +
        static_cast<double>(s.advances) *
            static_cast<double>(EntryLayout::blockHeaderBytes);
    return std::clamp(1.0 - overhead / opened, 0.0, 1.0);
}

double
BTraceObs::dummyOverheadFraction(const BTraceCounters::Snapshot &s,
                                 std::size_t block_size)
{
    const double opened =
        static_cast<double>(s.advances) * static_cast<double>(block_size);
    if (opened <= 0.0) return 0.0;
    return std::clamp(static_cast<double>(s.dummyBytes) / opened, 0.0,
                      1.0);
}

double
BTraceObs::consumerLagPositions() const
{
    const uint64_t head = bt.headPosition();
    if (!consumerSeen.load(std::memory_order_relaxed))
        return static_cast<double>(head);
    const uint64_t pos = consumerPos.load(std::memory_order_relaxed);
    return static_cast<double>(head - std::min(pos, head));
}

HealthInput
BTraceObs::healthInput() const
{
    HealthInput in;
    in.ctrs = bt.countersSnapshot();
    in.consumerLagPositions = consumerLagPositions();
    in.consumerActive = consumerSeen.load(std::memory_order_relaxed);
    return in;
}

BTraceObs::BTraceObs(BTrace &tracer) : bt(tracer)
{
    const std::string pfx = "btrace_";
    using Field = uint64_t BTraceCounters::Snapshot::*;

    const auto counter = [&](const char *name, const char *help,
                             Field field) {
        reg.addCounter(pfx + name, help, [this, field]() {
            return static_cast<double>(bt.countersSnapshot().*field);
        });
    };

    counter("fast_allocs_total", "Single-RMW fast-path allocations",
            &BTraceCounters::Snapshot::fastAllocs);
    counter("boundary_fills_total",
            "Allocations that filled a block to its boundary",
            &BTraceCounters::Snapshot::boundaryFills);
    counter("stale_allocs_total",
            "Allocations retried against a stale RndPos",
            &BTraceCounters::Snapshot::staleAllocs);
    counter("advances_total", "Successful block advancements",
            &BTraceCounters::Snapshot::advances);
    counter("skips_total", "Metadata blocks skipped while held",
            &BTraceCounters::Snapshot::skips);
    counter("closes_total", "Blocks closed by dummy fill",
            &BTraceCounters::Snapshot::closes);
    counter("lock_races_total", "Advancement lock CAS losses",
            &BTraceCounters::Snapshot::lockRaces);
    counter("core_races_total", "Core-local RndPos CAS losses",
            &BTraceCounters::Snapshot::coreRaces);
    counter("would_block_total",
            "Writes refused because every metadata block was held",
            &BTraceCounters::Snapshot::wouldBlock);
    counter("dummy_bytes_total", "Bytes consumed by dummy entries",
            &BTraceCounters::Snapshot::dummyBytes);
    counter("resizes_total", "Buffer resizes committed",
            &BTraceCounters::Snapshot::resizes);
    counter("shared_rmws_total",
            "RMW operations on shared (contended) cache lines",
            &BTraceCounters::Snapshot::sharedRmws);
    counter("leases_total", "Thread-local block leases granted",
            &BTraceCounters::Snapshot::leases);
    counter("lease_entries_total", "Entries written under a lease",
            &BTraceCounters::Snapshot::leaseEntries);

    reg.addGauge(pfx + "leased_outstanding_bytes",
                 "Leased bytes not yet confirmed", [this]() {
                     return static_cast<double>(
                         bt.countersSnapshot().leasedOutstanding);
                 });
    reg.addGauge(pfx + "effectivity_ratio",
                 "Fraction of opened block bytes carrying real entries",
                 [this]() {
                     return effectivityRatio(bt.countersSnapshot(),
                                             bt.config().blockSize);
                 });
    reg.addGauge(pfx + "dummy_overhead_fraction",
                 "Dummy fill as a fraction of opened block bytes",
                 [this]() {
                     return dummyOverheadFraction(bt.countersSnapshot(),
                                                  bt.config().blockSize);
                 });
    reg.addGauge(pfx + "consumer_lag_positions",
                 "Head position minus last noted consumer position",
                 [this]() { return consumerLagPositions(); });
    reg.addGauge(pfx + "head_position",
                 "Global allocation frontier (positions)", [this]() {
                     return static_cast<double>(bt.headPosition());
                 });
    reg.addGauge(pfx + "capacity_bytes", "Current buffer capacity",
                 [this]() {
                     return static_cast<double>(bt.capacityBytes());
                 });
    reg.addGauge(pfx + "resident_bytes",
                 "Bytes of the span currently materialized", [this]() {
                     return static_cast<double>(bt.residentBytes());
                 });
    reg.addGauge(pfx + "blocks_complete",
                 "Active metadata slots fully confirmed", [this]() {
                     return static_cast<double>(bt.occupancy().complete);
                 });
    reg.addGauge(pfx + "blocks_open",
                 "Active metadata slots with alloc == confirm",
                 [this]() {
                     return static_cast<double>(bt.occupancy().open);
                 });
    reg.addGauge(pfx + "blocks_incomplete",
                 "Active metadata slots awaiting confirmations",
                 [this]() {
                     return static_cast<double>(
                         bt.occupancy().incomplete);
                 });
}

} // namespace btrace
