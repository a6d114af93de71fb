/**
 * @file
 * Deterministic trace-replay engine (§5 "Replaying setup").
 *
 * Drives any Tracer with a synthetic Workload on virtual time: events
 * arrive per core as a modulated Poisson process, are attributed to
 * the thread the SliceSchedule has running, and are written through
 * the two-phase allocate/confirm interface. A write whose modeled
 * duration crosses the end of the thread's slice is *preempted
 * mid-write*: its confirm is deferred until the thread's next slice —
 * reproducing the oversubscription stress of §2.2 that causes BBQ to
 * block, LTTng to drop, and BTrace to skip.
 *
 * Every event carries a unique monotonically increasing logic stamp
 * (as in the paper) so the analysis layer can identify exactly which
 * events were retained, overwritten, or dropped.
 *
 * The engine runs on one real thread regardless of the number of
 * virtual cores, which makes every run bit-for-bit reproducible;
 * real-thread concurrency is exercised separately by the stress tests
 * and wall-clock microbenches.
 */

#ifndef BTRACE_SIM_REPLAY_H
#define BTRACE_SIM_REPLAY_H

#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/storage_backend.h"
#include "sim/schedule.h"
#include "trace/tracer.h"
#include "workloads/workload.h"

namespace btrace {

/** Knobs of one replay run. */
struct ReplayOptions
{
    ReplayMode mode = ReplayMode::ThreadLevel;
    double durationSec = 0.0;     //!< 0 = workload default
    double rateScale = 1.0;       //!< scales all per-core rates
    uint64_t seed = 1;
    bool keepProducedLog = true;
    /**
     * Entries per thread-local lease (Tracer::lease); 0 replays
     * through the single-entry allocate/confirm path. With leasing, a
     * producer preempted while holding an open lease keeps the lease
     * open until its next slice (or forever, for a straggler that
     * never resumes) — the mid-lease analogue of a mid-write
     * preemption, and the case the revocation accounting exists for.
     */
    uint32_t leaseEntries = 0;
};

/** Ground-truth record of one produced (attempted) event. */
struct ProducedEvent
{
    uint64_t stamp;
    uint32_t bytes;    //!< full entry size
    float time;        //!< virtual seconds
    uint16_t core;
    uint32_t thread;
    bool dropped;      //!< shed by the tracer (never written)
};

/** Everything a bench needs from one replay run. */
struct ReplayResult
{
    std::string tracerName;
    std::string workloadName;
    std::vector<ProducedEvent> produced;
    Dump dump;
    SampleSet latencyNs;          //!< per successful record, model ns
    uint64_t drops = 0;
    uint64_t retries = 0;
    uint64_t preemptedWrites = 0;
    uint64_t unconfirmed = 0;     //!< writes whose thread never resumed
    uint64_t leasesOpened = 0;    //!< leases granted (leaseEntries > 0)
    uint64_t leasesPreempted = 0; //!< owner descheduled mid-lease
    double producedBytes = 0.0;
    std::size_t capacityBytes = 0;
    double blockedSec = 0.0;      //!< virtual time with a stalled queue
    std::size_t maxBacklog = 0;   //!< worst stalled-producer queue
};

/** Replay @p wl against @p tracer and collect the results. */
ReplayResult replay(Tracer &tracer, const Workload &wl,
                    const ReplayOptions &opt = {});

/** The five tracers of the evaluation. */
enum class TracerKind
{
    BTrace,
    Bbq,
    Ftrace,
    Lttng,
    Vtrace,
};

/** Construction parameters shared across tracer kinds. */
struct TracerFactoryOptions
{
    std::size_t capacityBytes = 12u << 20;  //!< §5: 12 MB per tracer
    unsigned cores = kCores;
    std::size_t blockSize = 4096;           //!< §5: one page per block
    std::size_t activeBlocks = 0;           //!< 0 = 16 x cores (§5.1)
    std::size_t maxBlocks = 0;              //!< BTrace resize ceiling
    unsigned expectedThreads = 4000;        //!< VTrace provisioning
    unsigned subBuffers = 8;                //!< LTTng sub-buffers/core
    const CostModel *cost = nullptr;        //!< null = CostModel::def()
    /**
     * BTrace only: storage backend and (file kind) arena path. Null
     * storage inherits the build default (BTRACE_DEFAULT_BACKEND);
     * baselines always use private memory.
     */
    const StorageKind *storage = nullptr;
    std::string arenaPath;
};

/** Instantiate a tracer with the shared evaluation geometry. */
std::unique_ptr<Tracer> makeTracer(TracerKind kind,
                                   const TracerFactoryOptions &opt = {});

/** All kinds, Table 2 row order (BTrace first). */
const std::vector<TracerKind> &allTracerKinds();

/** Display name ("BTrace", "BBQ", "ftrace", "LTTng", "VTrace"). */
std::string tracerKindName(TracerKind kind);

} // namespace btrace

#endif // BTRACE_SIM_REPLAY_H
