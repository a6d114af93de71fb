/**
 * @file
 * Latency cost model for deterministic replay.
 *
 * The paper measures recording latency on a 12-core smartphone. This
 * container has one CPU, so absolute wall-clock numbers cannot be
 * reproduced; instead each tracer charges an explicit cost (in
 * nanoseconds) per operation on its write path, built from the
 * constants below. The constants are calibrated against published
 * figures: ~10 ns for an uncontended atomic RMW on a cache-hot line,
 * tens of ns extra when the line bounces between cores, ~200-300 ns
 * per-event framework overhead for LTTng-UST / VampirTrace. The
 * *shape* of the comparison (who is faster, by what factor, where the
 * spikes are) derives from the operation counts of each design, which
 * are real; only the unit costs are modeled. See DESIGN.md §2.
 */

#ifndef BTRACE_TRACE_COST_H
#define BTRACE_TRACE_COST_H

#include <cstddef>

namespace btrace {

/** Unit costs, in nanoseconds, charged by tracers during replay. */
struct CostModel
{
    double tscRead = 8.0;          //!< timestamp counter read
    double atomicLocal = 9.0;      //!< RMW on a core-local (hot) line
    double atomicShared = 26.0;    //!< RMW on a line shared across cores
    double contentionPenalty = 22.0; //!< extra per concurrent contender
    double perByte = 0.12;         //!< copy cost per payload byte
    double preemptToggle = 4.0;    //!< preempt_disable + enable (kernel)
    double tlsLookup = 14.0;       //!< userspace TLS/context lookup
    double setupOverhead = 12.0;   //!< call/branch/encode boilerplate
    double retryBackoff = 90.0;    //!< one failed acquire + backoff loop
    double lttngFramework = 150.0; //!< CTF serialization, clock sync
    double vtraceFramework = 210.0; //!< OTF encoding, counter sampling
    double leaseBump = 2.0;        //!< bump-pointer serve from an open lease

    /** The default model used by all benches. */
    static const CostModel &def();

    /** Cost of copying @p bytes into the buffer. */
    double copy(std::size_t bytes) const { return perByte * double(bytes); }

    /**
     * Contention charge for an RMW on a shared line with @p contenders
     * other writers in flight (capped to keep the model bounded).
     */
    double contention(std::size_t contenders) const;
};

} // namespace btrace

#endif // BTRACE_TRACE_COST_H
