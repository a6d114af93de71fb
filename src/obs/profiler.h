/**
 * @file
 * Cycle-accurate cost-attribution profiler for the fast path
 * (DESIGN.md §14).
 *
 * The ROADMAP's "hardware-speed fast path" item needs to know where
 * the remaining nanoseconds of a write go: the lease-claim FAA, the
 * bump-pointer serve, the confirm publish, retry/advancement backoff,
 * lease renewal/close, or the control-snapshot poll. CostProfiler
 * answers that with scoped PhaseProbe RAII timers at each phase,
 * timestamped by the TSC (rdtsc on x86, the virtual counter on
 * aarch64, CLOCK_MONOTONIC_RAW elsewhere) and converted to
 * nanoseconds through a one-time calibration against
 * CLOCK_MONOTONIC_RAW.
 *
 * Arming follows the journal contract exactly: a tracer holds one
 * std::atomic<CostProfiler *> and every probe site pays one relaxed
 * load and a predicted-not-taken branch when no profiler is attached.
 * Armed, a probe reads the TSC twice and feeds the delta into a
 * per-thread shard of the phase's ConcurrentHistogram — relaxed adds
 * on profiler-owned cache lines only, so arming changes *zero* shared
 * RMWs on the write protocol (asserted by the ProfilerContract test).
 *
 * The probe's own cost (two back-to-back TSC reads) is measured at
 * calibration and subtracted from every sample, clamped at zero;
 * snapshot() reports the estimate so readers can judge the residue.
 *
 * ThreadPerfCounters optionally adds hardware counters (cycles,
 * cache misses, branch misses) per thread via perf_event_open. The
 * syscall is frequently unavailable (seccomp, perf_event_paranoid,
 * containers): open() then fails with a message and everything else
 * degrades to TSC-only — a warning, never an error.
 */

#ifndef BTRACE_OBS_PROFILER_H
#define BTRACE_OBS_PROFILER_H

#include <array>
#include <atomic>
#include <cstdint>
#include <ctime>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "common/latency_histogram.h"

namespace btrace {

/** Fast-path phases attributed by the profiler (DESIGN.md §14). */
enum class ProfilePhase : uint8_t
{
    Claim = 0,    //!< span/entry reservation FAA on Allocated
    Bump,         //!< bump-pointer serve from a leased span
    Publish,      //!< confirm FAA on Confirmed (single or bulk)
    Retry,        //!< advancement + backoff (tryAdvance, retry spins)
    LeaseRenew,   //!< lease close overhead (owner CAS, tail give-back)
    ControlPoll,  //!< control-page poll for a newer snapshot
    Count_,       //!< sentinel: number of phases
};

constexpr std::size_t kProfilePhases =
    static_cast<std::size_t>(ProfilePhase::Count_);

/** Stable lowercase identifier ("claim", ..., "control_poll"). */
const char *profilePhaseName(ProfilePhase p);

/** Raw timestamp-counter read (cycles on x86; ns on the fallback). */
inline uint64_t
profilerTicks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#elif defined(__aarch64__)
    uint64_t v;
    asm volatile("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC_RAW, &ts);
    return uint64_t(ts.tv_sec) * 1000000000ull + uint64_t(ts.tv_nsec);
#endif
}

/** Per-phase summary of one snapshot (all values in nanoseconds). */
struct PhaseStats
{
    uint64_t count = 0;
    uint64_t totalNs = 0;
    double meanNs = 0.0;
    uint64_t p50Ns = 0;
    uint64_t p99Ns = 0;
    uint64_t maxNs = 0;
};

/** Merged view of every phase at one point in time. */
struct ProfileSnapshot
{
    std::array<PhaseStats, kProfilePhases> phases;
    double nsPerTick = 1.0;
    double probeOverheadNs = 0.0;

    const PhaseStats &
    of(ProfilePhase p) const
    {
        return phases[static_cast<std::size_t>(p)];
    }

    /** Total probes across all phases. */
    uint64_t samples() const;
    /** Sum of attributed nanoseconds across all phases. */
    uint64_t attributedNs() const;
    /** Human-readable phase-attribution table. */
    std::string table() const;
};

/**
 * Phase-attribution collector: one ConcurrentHistogram (per-thread
 * shards, relaxed adds) per fast-path phase, in nanoseconds. All
 * state is profiler-owned — nothing here ever touches tracer-shared
 * words, which is what keeps arming free of shared RMWs.
 */
class CostProfiler
{
  public:
    /** @p shards 0 = auto (clamped hardware concurrency). */
    explicit CostProfiler(unsigned shards = 0);

    CostProfiler(const CostProfiler &) = delete;
    CostProfiler &operator=(const CostProfiler &) = delete;

    /**
     * Record one probe: @p ticks raw TSC delta, minus the calibrated
     * probe overhead (clamped at zero), converted to ns. Thread-local
     * shard write only; called from PhaseProbe destructors.
     */
    void
    add(ProfilePhase p, uint64_t ticks)
    {
        const uint64_t net =
            ticks > overheadTicksVal ? ticks - overheadTicksVal : 0;
        hist[static_cast<std::size_t>(p)].add(
            static_cast<uint64_t>(double(net) * nsPerTickVal + 0.5));
    }

    /** Calibrated nanoseconds per raw tick. */
    double nsPerTick() const { return nsPerTickVal; }

    /** Estimated cost of one armed probe pair, in ns. */
    double
    probeOverheadNs() const
    {
        return double(overheadTicksVal) * nsPerTickVal;
    }

    /** Per-phase histogram (for MetricsRegistry::addHistogram). */
    const ConcurrentHistogram &
    histogram(ProfilePhase p) const
    {
        return hist[static_cast<std::size_t>(p)];
    }

    /** Merge every shard into a per-phase summary. */
    ProfileSnapshot snapshot() const;

    /** Reset every phase histogram (not the calibration). */
    void clear();

  private:
    std::array<ConcurrentHistogram, kProfilePhases> hist;
    double nsPerTickVal = 1.0;
    uint64_t overheadTicksVal = 0;
};

/**
 * Scoped phase timer. Construct with the tracer's armed pointer
 * (Tracer::activeProfiler()); a null profiler makes both ends a
 * branch, an attached one brackets the scope with two TSC reads.
 */
class PhaseProbe
{
  public:
    PhaseProbe(CostProfiler *p, ProfilePhase ph) : prof(p), phase(ph)
    {
        if (prof != nullptr)
            start = profilerTicks();
    }

    ~PhaseProbe()
    {
        if (prof != nullptr)
            prof->add(phase, profilerTicks() - start);
    }

    PhaseProbe(const PhaseProbe &) = delete;
    PhaseProbe &operator=(const PhaseProbe &) = delete;

  private:
    CostProfiler *prof;
    ProfilePhase phase;
    uint64_t start = 0;
};

/** One reading of the hardware counters. */
struct PerfSample
{
    uint64_t cycles = 0;
    uint64_t cacheMisses = 0;
    uint64_t branchMisses = 0;
};

/**
 * Per-thread perf_event_open counter group (cycles + cache misses +
 * branch misses, userspace only). open() must run on the thread being
 * measured; it returns false — with errno-specific detail in error()
 * — wherever the syscall is unavailable (ENOSYS), forbidden (EACCES/
 * EPERM under perf_event_paranoid or seccomp), or the PMU is missing
 * (ENOENT/ENODEV in VMs). Callers degrade to TSC-only timing.
 */
class ThreadPerfCounters
{
  public:
    ThreadPerfCounters() = default;
    ~ThreadPerfCounters();

    ThreadPerfCounters(const ThreadPerfCounters &) = delete;
    ThreadPerfCounters &operator=(const ThreadPerfCounters &) = delete;

    /** Open + enable the group on the calling thread. */
    bool open();

    /** True between a successful open() and destruction. */
    bool ok() const { return fds[0] >= 0; }

    /** Why open() failed (empty until it does). */
    const std::string &error() const { return err; }

    /** Zero the counters (keeps them enabled). */
    void reset();

    /** Current totals since open()/reset(). Zeros when not ok(). */
    PerfSample read() const;

  private:
    void closeAll();

    int fds[3] = {-1, -1, -1};  //!< leader (cycles), cache, branch
    std::string err;
};

} // namespace btrace

#endif // BTRACE_OBS_PROFILER_H
