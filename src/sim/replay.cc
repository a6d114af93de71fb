#include "sim/replay.h"

#include <algorithm>
#include <deque>
#include <queue>

#include "baselines/bbq.h"
#include "baselines/ftrace_like.h"
#include "baselines/lttng_like.h"
#include "baselines/vtrace_like.h"
#include "common/prng.h"
#include "core/btrace.h"

namespace btrace {

namespace {

/** Scheduler timeslice mean. */
constexpr double kSliceMeanSec = 1e-3;

/**
 * Widens the mid-write preemption window beyond the pure write cost:
 * a write also stays open across IRQs, page faults, and cache misses,
 * which the ns-level cost model does not include.
 */
constexpr double kPreemptionWindowBoost = 10.0;

/** Spin-retry interval after Retry. */
constexpr double kRetryDelaySec = 1e-6;

/**
 * Upper bound on how long a *runnable* preempted mid-write thread
 * stays off CPU: the scheduler cycles ~30 runnable threads per core
 * at millisecond slices (Fig 6), so ~100 ms even when the sampled
 * working set would not pick the thread for much longer.
 */
constexpr double kStragglerResumeSec = 0.12;

/**
 * Heavy tail of mid-write stalls: occasionally the preempted writer
 * is not merely descheduled but stuck for hundreds of ms (page fault
 * on a compressed/zram page, memory-compaction stall, cgroup
 * throttling — everyday events on loaded phones). These long holds
 * are what force LTTng to drop the newest data and BBQ to block
 * (§2.2); BTrace skips past them (§3.4).
 */
constexpr double kLongStallProb = 0.10;
constexpr double kLongStallMeanSec = 0.3;

/** Category tag stored in replayed entries. */
constexpr uint16_t kCategory = 0;

/** Per-core piecewise-constant burst modulation of the arrival rate. */
class BurstProfile
{
  public:
    BurstProfile(const Workload &wl, double duration, uint64_t seed)
        : bucketSec(0.5)
    {
        Prng rng(seed * 6364136223846793005ull + wl.seed + 99);
        const auto buckets =
            static_cast<std::size_t>(duration / bucketSec) + 2;
        factors.resize(kCores);
        for (unsigned c = 0; c < kCores; ++c) {
            factors[c].resize(buckets);
            for (auto &f : factors[c]) {
                f = rng.chance(wl.burstiness) ? wl.burstLowFactor : 1.0;
            }
        }
    }

    double
    factorAt(uint16_t core, double t) const
    {
        const auto b = static_cast<std::size_t>(t / bucketSec);
        const auto &f = factors[core];
        return f[std::min(b, f.size() - 1)];
    }

  private:
    double bucketSec;
    std::vector<std::vector<double>> factors;
};

/** Discrete simulation event. */
struct SimEv
{
    enum Kind { Arrival, Poke, Confirm, LeaseClose };

    double t = 0.0;
    uint64_t seq = 0;       //!< deterministic tie-break
    Kind kind = Arrival;
    uint16_t core = 0;
    uint32_t thread = 0;
    uint64_t stamp = 0;
    uint32_t payload = 0;
    double cost = 0.0;      //!< ns accumulated across attempts
    double arrivalT = 0.0;  //!< when the producer asked to record
    int attempts = 0;
    WriteTicket ticket;     //!< valid for Confirm only
    std::size_t leaseIdx = 0;  //!< graveyard slot, LeaseClose only
};

struct EvLater
{
    bool
    operator()(const SimEv &a, const SimEv &b) const
    {
        return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
};

} // namespace

ReplayResult
replay(Tracer &tracer, const Workload &wl, const ReplayOptions &opt)
{
    ReplayResult res;
    res.tracerName = tracer.name();
    res.workloadName = wl.name;
    res.capacityBytes = tracer.capacityBytes();

    const double duration =
        opt.durationSec > 0 ? opt.durationSec : wl.durationSec;
    // The paper's replay joins every producer thread before dumping,
    // so in-flight writes get to finish: allow stalled confirms a
    // generous flush window past the end of event generation.
    const double grace = duration + 2.0;

    Prng rng(opt.seed * 0x9e3779b97f4a7c15ull ^ (wl.seed << 17));
    const SliceSchedule schedule = SliceSchedule::build(
        wl, opt.mode, duration, opt.seed, kSliceMeanSec);
    const BurstProfile bursts(wl, duration, opt.seed);
    const CostModel &model = tracer.model();

    std::priority_queue<SimEv, std::vector<SimEv>, EvLater> heap;
    uint64_t seq = 0;
    uint64_t stamp_counter = 0;

    const double expected = wl.expectedBytes() * opt.rateScale /
                            (double(EntryLayout::normalHeaderBytes) +
                             wl.meanPayloadBytes());
    if (opt.keepProducedLog)
        res.produced.reserve(static_cast<std::size_t>(expected * 1.1) + 64);

    auto sample_payload = [&]() {
        return static_cast<uint32_t>(
            rng.heavyTail(wl.payloadLo, wl.payloadHi, wl.payloadShape));
    };

    auto push_arrival = [&](uint16_t core, double after) {
        const double rate = wl.ratePerSec[core] * opt.rateScale *
                            bursts.factorAt(core, after);
        if (rate <= 0.0)
            return;
        const double t = after + rng.exponential(1.0 / rate);
        if (t >= duration)
            return;
        SimEv ev;
        ev.t = t;
        ev.seq = ++seq;
        ev.kind = SimEv::Arrival;
        ev.core = core;
        heap.push(ev);
    };

    // The ground-truth log gains one entry per *arrival* (stamps stay
    // contiguous even for events still in flight at dump time); the
    // dropped flag is set later if the tracer sheds the event.
    auto log_produced = [&](uint64_t stamp, uint32_t bytes, double t,
                            uint16_t core, uint32_t thread) {
        res.producedBytes += double(bytes);
        if (opt.keepProducedLog) {
            res.produced.push_back(ProducedEvent{
                stamp, bytes, float(t), core, thread, false});
        }
    };

    auto mark_dropped = [&](uint64_t stamp) {
        ++res.drops;
        if (opt.keepProducedLog)
            res.produced[stamp - 1].dropped = true;
    };

    // Global FIFO of events waiting behind a Retry. Both tracers that
    // can return Retry (BBQ behind an unfinished block, BTrace with
    // every metadata block held) block *globally*, and the paper's
    // replay is closed-loop: stalled producers resume in arrival
    // order. An open-loop retry heap (or per-core queues) would
    // reorder or core-segregate the thundering herd and shred the
    // stamp space at overwrite boundaries.
    std::deque<SimEv> backlog;

    enum class WriteStatus { Done, Blocked };

    // Leased mode: one open lease per core, owned by the thread that
    // opened it. A thread handover with the lease still open is a
    // mid-lease preemption: the old owner keeps the close obligation
    // until its next slice, so the lease moves to a graveyard (stable
    // addresses — LeaseClose events index into it) and closes when
    // the owner resumes, or never, for a straggler past the grace
    // window (the destructor then closes it after the final dump,
    // exactly like a writer that never returned).
    struct CoreLeaseSlot
    {
        uint32_t owner = 0;
        Lease lease;
    };
    std::vector<CoreLeaseSlot> coreLeases(kCores);
    std::deque<Lease> graveyard;
    const auto payload_hint = static_cast<uint32_t>(
        wl.meanPayloadBytes());

    // Preemption check shared by both write paths: does the write
    // window survive the thread's scheduling slice? Backlog-delayed
    // events are exempt (see below). Returns the owner's resume time,
    // or a negative value when the write completes undisturbed.
    auto preempted_until = [&](const SimEv &ev, double window_ns) {
        if (opt.mode != ReplayMode::ThreadLevel ||
            ev.t != ev.arrivalT || tracer.disablesPreemption())
            return -1.0;
        const SliceSchedule::Running run =
            schedule.runningAt(ev.core, ev.t);
        const double window =
            window_ns * 1e-9 * kPreemptionWindowBoost;
        if (run.thread != ev.thread || ev.t + window <= run.sliceEnd)
            return -1.0;
        double resume =
            schedule.nextRunAfter(ev.core, ev.thread, run.sliceEnd);
        resume = std::min(resume, run.sliceEnd + kStragglerResumeSec);
        if (rng.chance(kLongStallProb))
            resume += rng.exponential(kLongStallMeanSec);
        return resume;
    };

    // The step after a grant, shared by both write paths: fill the
    // entry, price it, and confirm it now or when its preempted owner
    // resumes. @p lease is the lease that served a batched ticket.
    auto finish_write = [&](SimEv &ev, WriteTicket &ticket, Lease *lease) {
        writeNormal(ticket.dst, ev.stamp, ev.core, ev.thread, kCategory,
                    ev.payload);
        const double copy_cost = model.copy(ticket.entrySize);
        double cost = ev.cost + ticket.cost + copy_cost;
        // A producer stalled behind a blocked tracer experiences the
        // wait as recording latency (the paper measures wall time and
        // tames the outliers with the geometric mean).
        cost += (ev.t - ev.arrivalT) * 1e9;

        // Mid-write preemption: does the write window survive the
        // thread's scheduling slice? Backlog-delayed events are
        // exempt: a whole drained burst shares one service instant,
        // and flagging every burst write that lands near a slice end
        // would manufacture preemption cascades out of the time
        // collapse. A thread preempted mid-write stays *runnable*;
        // the scheduler gets back to it within tens of ms even if
        // the sampled working set would not pick it for a while, so
        // the resume delay is capped — except for the heavy tail of
        // genuine stalls (page faults, compaction, throttling).
        const double resume =
            preempted_until(ev, ticket.cost + copy_cost);
        if (resume >= 0.0) {
            ++res.preemptedWrites;
            if (resume > grace) {
                // A straggler that never runs again: its entry stays
                // unconfirmed (a hole in a leased span), the block
                // never completes and is sacrificed like one held by
                // a preempted writer (§3.4). The auditor reconciles a
                // leased deficit against leasedOutstanding.
                ++res.unconfirmed;
                return;
            }
            if (!ticket.leased) {
                SimEv conf;
                conf.t = resume;
                conf.seq = ++seq;
                conf.kind = SimEv::Confirm;
                conf.core = ev.core;
                conf.thread = ev.thread;
                conf.stamp = ev.stamp;
                conf.cost = cost;
                conf.ticket = ticket;
                heap.push(conf);
                return;
            }
            // A batched ticket: the owner finishes the interrupted
            // write on its next slice, and program order in the owner
            // puts that before any close it issues — so the confirm
            // always lands inside the lease. Counting it now keeps
            // the span hole-free without a deferred event racing the
            // graveyard close.
        }
        ticket.cost = 0.0;
        if (ticket.leased)
            lease->confirm(ticket);  // no cost: published at close
        else
            tracer.confirm(ticket);
        res.latencyNs.add(cost + ticket.cost);
    };

    // One leased write attempt: renew the core's lease as needed and
    // serve the entry from it.
    auto attempt_lease_write = [&](SimEv &ev) {
        auto &slot = coreLeases[ev.core];
        if (!slot.lease.closed() && slot.owner != ev.thread) {
            // The previous owner was descheduled holding the lease.
            ++res.leasesPreempted;
            graveyard.push_back(std::move(slot.lease));
            double resume =
                schedule.nextRunAfter(ev.core, slot.owner, ev.t);
            resume = std::min(resume, ev.t + kStragglerResumeSec);
            if (rng.chance(kLongStallProb))
                resume += rng.exponential(kLongStallMeanSec);
            // The straggler cutoff is relative to when the handover is
            // noticed, not the absolute grace deadline: a backlog-
            // dilated clock would otherwise declare *every* preempted
            // owner a straggler, and each unclosed lease wedges one
            // metadata block until the tracer deadlocks behind A
            // incomplete blocks. Only the long-stall tail (page
            // faults, compaction) may genuinely never return.
            if (resume <= std::max(grace, ev.t + (grace - duration))) {
                SimEv cl;
                cl.t = resume;
                cl.seq = ++seq;
                cl.kind = SimEv::LeaseClose;
                cl.leaseIdx = graveyard.size() - 1;
                heap.push(cl);
            }
        }
        for (int renewal = 0; renewal < 2; ++renewal) {
            if (slot.lease.closed() || slot.owner != ev.thread) {
                Lease l = tracer.lease(ev.core, ev.thread, payload_hint,
                                       opt.leaseEntries);
                if (!l.ok()) {
                    ++res.retries;
                    ev.cost += l.cost() + model.retryBackoff;
                    ev.attempts += 1;
                    return WriteStatus::Blocked;
                }
                ++res.leasesOpened;
                slot.owner = ev.thread;
                // The opening event pays the claim; followers pay
                // only the bump (their ticket cost).
                ev.cost += l.cost();
                slot.lease = std::move(l);
            }
            WriteTicket ticket = slot.lease.allocate(ev.payload);
            if (ticket.status == AllocStatus::Drop) {
                mark_dropped(ev.stamp);
                return WriteStatus::Done;
            }
            if (ticket.status == AllocStatus::Retry) {
                // Span (or fallback budget) exhausted: close, renew
                // once; a second failure means the tracer itself is
                // blocked.
                slot.lease.close();
                if (renewal == 1)
                    break;
                continue;
            }
            finish_write(ev, ticket, &slot.lease);
            return WriteStatus::Done;
        }
        ++res.retries;
        ev.cost += model.retryBackoff;
        ev.attempts += 1;
        return WriteStatus::Blocked;
    };

    // One write attempt: allocate, and on success write + (possibly
    // deferred) confirm.
    auto attempt_write = [&](SimEv &ev) {
        if (opt.leaseEntries > 0)
            return attempt_lease_write(ev);
        WriteTicket ticket =
            tracer.allocate(ev.core, ev.thread, ev.payload);
        if (ticket.status == AllocStatus::Drop) {
            mark_dropped(ev.stamp);
            return WriteStatus::Done;
        }
        if (ticket.status == AllocStatus::Retry) {
            ++res.retries;
            ev.cost = ev.cost + ticket.cost + model.retryBackoff;
            ev.attempts += 1;
            return WriteStatus::Blocked;
        }
        finish_write(ev, ticket, nullptr);
        return WriteStatus::Done;
    };

    // Drain the backlog in FIFO order until it blocks again (then
    // schedule a poke) or empties.
    double blocked_since = -1.0;
    auto service = [&](double now) {
        res.maxBacklog = std::max(res.maxBacklog, backlog.size());
        while (!backlog.empty()) {
            SimEv &head = backlog.front();
            head.t = now;
            if (head.attempts > 20000) {
                // Livelock guard: the tracer never unblocked; shed the
                // event so the run terminates.
                mark_dropped(head.stamp);
                backlog.pop_front();
                continue;
            }
            if (attempt_write(head) == WriteStatus::Blocked) {
                // Exponential-ish backoff bounds the poke rate while
                // the queue stays blocked.
                const double backoff = std::min(
                    kRetryDelaySec * double(1 + head.attempts / 4),
                    1e-3);
                SimEv poke;
                poke.t = now + backoff;
                poke.seq = ++seq;
                poke.kind = SimEv::Poke;
                heap.push(poke);
                if (blocked_since < 0)
                    blocked_since = now;
                return;
            }
            backlog.pop_front();
        }
        if (blocked_since >= 0) {
            res.blockedSec += now - blocked_since;
            blocked_since = -1.0;
        }
    };

    for (unsigned c = 0; c < kCores; ++c)
        push_arrival(uint16_t(c), 0.0);

    while (!heap.empty()) {
        SimEv ev = heap.top();
        heap.pop();

        switch (ev.kind) {
          case SimEv::Arrival: {
            push_arrival(ev.core, ev.t);
            const SliceSchedule::Running run =
                schedule.runningAt(ev.core, ev.t);
            ev.thread = run.thread;
            ev.stamp = ++stamp_counter;
            ev.arrivalT = ev.t;
            ev.payload = sample_payload();
            log_produced(ev.stamp,
                         uint32_t(EntryLayout::normalSize(ev.payload)),
                         ev.t, ev.core, ev.thread);
            const bool idle = backlog.empty();
            backlog.push_back(ev);
            if (idle)
                service(ev.t);
            // Otherwise a poke for the blocked head is already
            // pending; this event waits its turn in FIFO order.
            break;
          }
          case SimEv::Poke: {
            service(ev.t);
            break;
          }
          case SimEv::Confirm: {
            ev.ticket.cost = 0.0;
            tracer.confirm(ev.ticket);
            res.latencyNs.add(ev.cost + ev.ticket.cost);
            break;
          }
          case SimEv::LeaseClose: {
            // The preempted owner got its slice back and returned the
            // lease it was descheduled with.
            graveyard[ev.leaseIdx].close();
            break;
          }
        }
    }

    // The replay joins every producer before dumping, so threads
    // still owning their core's lease return it now. Graveyard leases
    // whose owner never resumed within the grace window stay open
    // across the dump — their blocks read as in-flight — and are
    // closed by destruction afterwards.
    for (CoreLeaseSlot &slot : coreLeases)
        slot.lease.close();

    res.dump = tracer.dump();
    return res;
}

std::unique_ptr<Tracer>
makeTracer(TracerKind kind, const TracerFactoryOptions &opt)
{
    const CostModel &model = opt.cost ? *opt.cost : CostModel::def();
    switch (kind) {
      case TracerKind::BTrace: {
        BTraceConfig cfg;
        cfg.blockSize = opt.blockSize;
        cfg.cores = opt.cores;
        cfg.activeBlocks =
            opt.activeBlocks ? opt.activeBlocks : 16 * opt.cores;
        // Round to the nearest multiple of A so small capacities do
        // not silently lose a large fraction of the request.
        const std::size_t raw = opt.capacityBytes / opt.blockSize;
        const std::size_t a = cfg.activeBlocks;
        cfg.numBlocks = std::max(a, (raw + a / 2) / a * a);
        if (opt.maxBlocks) {
            cfg.maxBlocks = std::max(cfg.numBlocks,
                                     opt.maxBlocks - opt.maxBlocks % a);
        }
        if (opt.storage != nullptr)
            cfg.storage = *opt.storage;
        cfg.arenaPath = opt.arenaPath;
        return std::make_unique<BTrace>(cfg, model);
      }
      case TracerKind::Bbq: {
        BbqConfig cfg;
        cfg.blockSize = opt.blockSize;
        cfg.numBlocks = opt.capacityBytes / opt.blockSize;
        cfg.cores = opt.cores;
        return std::make_unique<Bbq>(cfg, model);
      }
      case TracerKind::Ftrace: {
        FtraceConfig cfg;
        cfg.capacityBytes = opt.capacityBytes;
        cfg.cores = opt.cores;
        return std::make_unique<FtraceLike>(cfg, model);
      }
      case TracerKind::Lttng: {
        LttngConfig cfg;
        cfg.capacityBytes = opt.capacityBytes;
        cfg.cores = opt.cores;
        cfg.subBuffers = opt.subBuffers;
        return std::make_unique<LttngLike>(cfg, model);
      }
      case TracerKind::Vtrace: {
        VtraceConfig cfg;
        cfg.capacityBytes = opt.capacityBytes;
        cfg.expectedThreads = opt.expectedThreads;
        return std::make_unique<VtraceLike>(cfg, model);
      }
    }
    BTRACE_PANIC("unknown tracer kind");
}

const std::vector<TracerKind> &
allTracerKinds()
{
    static const std::vector<TracerKind> kinds = {
        TracerKind::BTrace, TracerKind::Bbq, TracerKind::Ftrace,
        TracerKind::Lttng, TracerKind::Vtrace};
    return kinds;
}

std::string
tracerKindName(TracerKind kind)
{
    switch (kind) {
      case TracerKind::BTrace: return "BTrace";
      case TracerKind::Bbq: return "BBQ";
      case TracerKind::Ftrace: return "ftrace";
      case TracerKind::Lttng: return "LTTng";
      case TracerKind::Vtrace: return "VTrace";
    }
    return "?";
}

} // namespace btrace
