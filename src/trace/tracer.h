/**
 * @file
 * Common tracer interface implemented by BTrace and all baselines.
 *
 * The write path is split into allocate() and confirm() so that the
 * replay engine can model a thread being preempted *between* the two
 * (the core oversubscription problem of §2.2, Observation 2). The
 * caller writes the entry via writeNormal() into the ticket's buffer
 * between the two calls. ScopedWrite wraps the pair in an RAII guard
 * that auto-confirms (or, on exception unwind, auto-abandons by
 * dummy-filling the granted space so the accounting stays complete).
 *
 * allocate() never blocks: it returns Ok with a buffer, Retry when the
 * design would block (BBQ behind a preempted writer, BTrace with every
 * metadata block in flight), or Drop when the design sheds the event
 * (LTTng-style drop-newest). Costs in nanoseconds, per the CostModel,
 * accumulate in the ticket.
 *
 * Batch writers use lease(): one claim amortized over up to @c n
 * entries. BTrace implements it with a single shared RMW per lease
 * (bump-pointer serves in between, §4.1 amortized); every other
 * tracer inherits the single-entry fallback, which serves each entry
 * through its ordinary allocate()/confirm() pair — so cross-tracer
 * comparisons stay apples-to-apples.
 */

#ifndef BTRACE_TRACE_TRACER_H
#define BTRACE_TRACE_TRACER_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/panic.h"
#include "obs/profiler.h"
#include "trace/cost.h"
#include "trace/event.h"
#include "trace/observer.h"

namespace btrace {

/** Outcome of an allocate() call. */
enum class AllocStatus
{
    Ok,     //!< space granted; write then confirm()
    Retry,  //!< would block; try again later (caller decides when)
    Drop,   //!< event shed by design; never retried
};

/**
 * Tracer-private state carried between allocate() and confirm().
 * Opaque to callers; implementations name their use of each field
 * instead of multiplexing raw cookie words.
 */
struct TicketHandle
{
    uint32_t slot = 0;  //!< metadata / block / core index
    uint32_t aux = 0;   //!< generation, sub-buffer, or round tag
};

/** State handed from allocate() to confirm(). */
struct WriteTicket
{
    AllocStatus status = AllocStatus::Retry;
    uint8_t *dst = nullptr;    //!< where to write the entry
    uint32_t entrySize = 0;    //!< total entry bytes granted
    uint16_t core = 0;
    uint32_t thread = 0;
    double cost = 0.0;         //!< ns accumulated so far
    TicketHandle handle;       //!< tracer-private (see TicketHandle)
    bool leased = false;       //!< served from a Lease; confirm there

    bool ok() const { return status == AllocStatus::Ok; }
};

/** One decoded entry of a dump, ready for continuity analysis. */
struct DumpEntry
{
    uint64_t stamp = 0;
    uint32_t size = 0;         //!< total entry bytes
    uint16_t core = 0;
    uint32_t thread = 0;
    uint16_t category = 0;
    bool payloadOk = true;
};

/** A consumer snapshot plus bookkeeping about what was readable. */
struct Dump
{
    std::vector<DumpEntry> entries;
    uint64_t skippedBlocks = 0;    //!< blocks lost to SKP markers
    uint64_t abandonedBlocks = 0;  //!< speculative reads that failed
    /**
     * Blocks with unconfirmed in-flight writes. Snapshot reads count
     * every one they meet; BTrace's incremental reads (dumpFrom) count
     * only those walked past for good, which is data loss.
     */
    uint64_t unreadableBlocks = 0;
    /**
     * Incremental reads only (dumpFrom): positions whose data the
     * producers lapped — between the caller's cursor and the
     * overwrite frontier before this read started, or overtaken by a
     * full buffer lap while the read was in flight. Permanently gone
     * data, not merely unreadable right now. Zero when the consumer
     * kept up.
     */
    uint64_t overwrittenPositions = 0;
};

/**
 * Opaque incremental-read position for Tracer::dumpFrom(). Value-
 * initialize to start from the beginning; the tracer owns the meaning
 * of the fields (BTrace: a global block position; the baseline
 * fallback: a stamp high-water mark). Reuse the same cursor across
 * calls to receive only new data.
 */
struct DumpCursor
{
    uint64_t position = 0;  //!< tracer-private progress marker
};

/**
 * Behavior switches for Tracer::dumpFrom(). The default (both off) is
 * the conservative streaming read: completed blocks only, stop at the
 * first still-open block.
 */
struct DumpOptions
{
    /**
     * Close partially filled blocks whose writes are all confirmed,
     * then read them (§4.3 non-filled handling): the newest entries
     * are returned now and producers move on to fresh blocks. Blocks
     * with unconfirmed in-flight writes are left alone, and the pass
     * stops at the first one so a later pass resumes there — unless
     * it lies far behind the newest block (BTrace: more than 2 x
     * activeBlocks positions) or lastPass is set; then it is walked
     * past and charged to Dump::unreadableBlocks.
     */
    bool closeActive = false;
    /**
     * Snapshot-peek mode: read open blocks *without* closing them and
     * keep walking past them instead of stopping. Entries of a block
     * read this way will be returned again by a later pass once the
     * block completes, and the pass performs no loss accounting —
     * this is what makes dump() a plain non-destructive snapshot.
     * Mutually exclusive with closeActive (closeActive wins).
     */
    bool readOpen = false;
    /**
     * No later pass follows (a consumer's final drain at shutdown).
     * A close-on-read pass then never stops to wait for a block, so
     * every complete block after one still held by a writer is read
     * too.
     */
    bool lastPass = false;
};

class Tracer;
struct ControlSnapshot;

/**
 * A claim on up to @c n entry slots, served without per-entry shared
 * RMWs when the tracer supports batching (BTrace: one Allocated
 * fetch_add per lease, plain bump-pointer arithmetic in between, one
 * Confirmed fetch_add at close). Obtained from Tracer::lease().
 *
 * Lifecycle: allocate() entries until it reports Retry (span
 * exhausted), then close() — or let the destructor close. close()
 * publishes every confirmed entry and returns the unused remainder:
 * BTrace hands it back to the block when the lease is still the
 * block's newest reservation, and dummy-fills it otherwise, so the
 * accounting invariant (every byte confirmed exactly once) holds
 * regardless of how much of the lease was used. An abandoned-but-
 * destructed lease therefore costs at most its unused bytes; a lease
 * whose owner never returns leaves its block unconfirmed and the
 * block is sacrificed exactly like one held by a preempted
 * single-entry writer (§3.4).
 *
 * A lease is bound to the (core, thread) it was opened for. A thread
 * migrating cores should close() and re-lease on the new core; writes
 * through a stale lease stay correct (the claimed span is private)
 * but lose core locality.
 *
 * Move-only; moving transfers the close obligation.
 */
class Lease
{
  public:
    Lease() = default;

    Lease(Lease &&other) noexcept { moveFrom(other); }

    Lease &
    operator=(Lease &&other) noexcept
    {
        if (this != &other) {
            close();
            moveFrom(other);
        }
        return *this;
    }

    Lease(const Lease &) = delete;
    Lease &operator=(const Lease &) = delete;

    ~Lease() { close(); }

    AllocStatus status() const { return st; }
    bool ok() const { return st == AllocStatus::Ok; }
    /** True once close() ran (or the lease was never granted). */
    bool closed() const { return owner == nullptr; }
    /** True when served by bump-pointer (no per-entry shared RMWs). */
    bool batched() const { return base != nullptr; }
    uint16_t core() const { return coreId; }
    uint32_t thread() const { return threadId; }
    uint32_t remainingBytes() const { return len - used; }
    /** Entries served so far. */
    uint32_t entries() const { return served; }
    /** ns charged for open/serve/close so far. */
    double cost() const { return costNs; }

    /** Cost model of the granting tracer (lease must be open). */
    const CostModel &model() const;

    /**
     * Serve one entry of @p payload_len payload bytes from the lease.
     * Returns a Retry ticket when the remaining span cannot fit the
     * entry (close() and open a fresh lease) or when the lease itself
     * was not granted.
     */
    WriteTicket allocate(uint32_t payload_len);

    /** Publish an entry served by this lease (no shared RMW). */
    void confirm(WriteTicket &ticket);

    /**
     * Give up on an entry served by this lease: dummy-fill its space
     * and account it confirmed, so the block still completes.
     */
    void abandon(WriteTicket &ticket);

    /**
     * Return the unused span and publish the lease's confirmed bytes
     * (batched tracers: one shared RMW, plus one for a tail handed
     * back to the block). Idempotent; the destructor calls it.
     */
    void close();

  private:
    friend class Tracer;

    void
    moveFrom(Lease &other) noexcept
    {
        owner = other.owner;
        st = other.st;
        coreId = other.coreId;
        threadId = other.threadId;
        base = other.base;
        len = other.len;
        used = other.used;
        confirmedBytes = other.confirmedBytes;
        dummyBytes = other.dummyBytes;
        served = other.served;
        budget = other.budget;
        handle = other.handle;
        claimWord = other.claimWord;
        claimLen = other.claimLen;
        costNs = other.costNs;
        other.owner = nullptr;
        other.base = nullptr;
        other.st = AllocStatus::Retry;
    }

    Tracer *owner = nullptr;       //!< null once closed / never granted
    AllocStatus st = AllocStatus::Retry;
    uint16_t coreId = 0;
    uint32_t threadId = 0;
    uint8_t *base = nullptr;       //!< leased span; null = fallback mode
    uint32_t len = 0;              //!< bytes leased (batched mode)
    uint32_t used = 0;             //!< bytes bump-allocated so far
    uint32_t confirmedBytes = 0;   //!< bytes confirmed through the lease
    uint32_t dummyBytes = 0;       //!< abandoned-entry bytes dummy-filled
    uint32_t served = 0;           //!< entries handed out
    uint32_t budget = 0;           //!< fallback mode: entries remaining
    TicketHandle handle;           //!< tracer-private
    uint64_t claimWord = 0;        //!< tracer-private: word before the claim
    uint32_t claimLen = 0;         //!< tracer-private: bytes the claim added
    double costNs = 0.0;
};

/**
 * Abstract tracer. Implementations: core/BTrace, baselines/Bbq,
 * baselines/FtraceLike, baselines/LttngLike, baselines/VtraceLike.
 */
class Tracer
{
  public:
    explicit Tracer(const CostModel &model = CostModel::def())
        : costs(model) {}
    virtual ~Tracer() = default;

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Short identifier used in reports ("BTrace", "ftrace", ...). */
    virtual std::string name() const = 0;

    /**
     * True iff the design disables preemption around the write path
     * (ftrace in the kernel). The replay engine then never models a
     * context switch between allocate() and confirm() — at the cost
     * charged by the tracer. Infeasible for userspace tracers (§2.2).
     */
    virtual bool disablesPreemption() const { return false; }

    /** Total data-buffer capacity in bytes. */
    virtual std::size_t capacityBytes() const = 0;

    /**
     * Reserve space for a normal entry with @p payload_len payload
     * bytes, to be produced by @p thread running on @p core.
     */
    virtual WriteTicket allocate(uint16_t core, uint32_t thread,
                                 uint32_t payload_len) = 0;

    /** Publish a previously allocated entry; adds cost to the ticket. */
    virtual void confirm(WriteTicket &ticket) = 0;

    /**
     * Give up on an allocated-but-unwritten ticket: dummy-fill the
     * granted space and confirm it, so designs with completeness
     * accounting (BTrace) still close their blocks.
     */
    virtual void abandonWrite(WriteTicket &ticket);

    /**
     * Claim a lease sized for @p n entries of @p payload_hint payload
     * bytes each, for @p thread on @p core. The span also serves
     * entries of other sizes while they fit. Tracers without batching
     * inherit a fallback lease that forwards every entry to
     * allocate()/confirm() (and reports exhaustion after @p n entries
     * so renewal-driven callers behave uniformly).
     */
    virtual Lease lease(uint16_t core, uint32_t thread,
                        uint32_t payload_hint, uint32_t n);

    /** Non-destructive consumer snapshot of the retained entries. */
    virtual Dump dump() = 0;

    /**
     * Incremental consumer read: return entries that appeared since
     * the last call with the same @p cursor, advancing the cursor.
     * @p opts selects close-on-read or snapshot-peek behavior for
     * tracers that support it (BTrace). The base implementation is a
     * trivial full-snapshot cursor — dump() filtered to stamps above
     * the cursor's high-water mark — so callers can stream from any
     * tracer without special-casing BTrace.
     */
    virtual Dump dumpFrom(DumpCursor &cursor,
                          const DumpOptions &opts = {});

    /**
     * Convenience blocking write: allocate (spinning on Retry, with
     * each spin charged at CostModel::retryBackoff), fill, confirm.
     * Returns false iff the event was dropped by design. Total
     * charged cost is returned through @p cost_out if non-null.
     */
    bool record(uint16_t core, uint32_t thread, uint64_t stamp,
                uint32_t payload_len, uint16_t category = 0,
                double *cost_out = nullptr);

    const CostModel &model() const { return costs; }

    /**
     * Attach (or detach, with nullptr) a self-observation collector.
     * The observer must outlive its attachment; it samples record()
     * latency and lease-close cost 1-in-K per thread (observer.h) and
     * works identically for BTrace and every baseline, so cross-design
     * dashboards read one schema. Attachment itself is wait-free.
     */
    void
    attachObserver(TracerObserver *o)
    {
        observer.store(o, std::memory_order_release);
    }

    /** Currently attached observer, or nullptr. */
    TracerObserver *
    attachedObserver() const
    {
        return observer.load(std::memory_order_acquire);
    }

    /**
     * Publish @p s as the effective control snapshot (control plane
     * internals — ControlPlane::publish is the only intended caller;
     * nullptr means controls-at-defaults, the common case). The
     * snapshot must stay valid until replaced *and* every reader that
     * may have loaded it is done — the ControlPlane guarantees this
     * by never freeing published snapshots (DESIGN.md §12).
     */
    void
    setControlSnapshot(const ControlSnapshot *s)
    {
        control.store(s, std::memory_order_release);
    }

    /** Currently effective control snapshot, or nullptr (defaults). */
    const ControlSnapshot *
    controlSnapshot() const
    {
        return control.load(std::memory_order_acquire);
    }

    /**
     * The control plane's sampling gate: true when an event of
     * @p category from @p thread at @p stamp should be recorded.
     * record() consults it internally; lease-path callers (the replay
     * engine, btrace_producer) call it before allocating an entry.
     * With controls at defaults this is one acquire load and a
     * predicted-not-taken branch — zero shared RMWs, the same bar as
     * the journal and observer planes.
     */
    bool shouldRecord(uint16_t category, uint32_t thread,
                      uint64_t stamp) const;

    /**
     * Attach (or detach, with nullptr) the cost-attribution profiler
     * (obs/profiler.h, DESIGN.md §14). Armed like the journal: every
     * fast-path probe site pays one relaxed load and a branch when
     * detached, and an attached profiler only ever writes its own
     * per-thread histogram shards — zero shared RMWs either way
     * (asserted by ProfilerContract). The profiler must outlive its
     * attachment.
     */
    void
    attachProfiler(CostProfiler *p)
    {
        profiler.store(p, std::memory_order_release);
    }

    /** Armed profiler, or nullptr; the single probe-arming load. */
    CostProfiler *
    activeProfiler() const
    {
        return profiler.load(std::memory_order_relaxed);
    }

  protected:
    friend class Lease;

    /**
     * Batched-lease publish hook: return the unused span and confirm
     * the lease's bytes. Only tracers that grant batched leases (base
     * != nullptr) need to override.
     */
    virtual void leaseClose(Lease &l) { (void)l; }

    /**
     * Build a granted batched lease (implementation helper).
     * @p claim_word and @p claim_len are the tracer's record of the
     * reservation that produced the span (BTrace: the Allocated word
     * its fetch_add returned and the amount added), handed back
     * unchanged in the LeaseView at close.
     */
    static Lease
    grantLease(Tracer &t, uint16_t core, uint32_t thread, uint8_t *base,
               uint32_t len, TicketHandle handle, double cost,
               uint64_t claim_word, uint32_t claim_len)
    {
        Lease l;
        l.owner = &t;
        l.st = AllocStatus::Ok;
        l.coreId = core;
        l.threadId = thread;
        l.base = base;
        l.len = len;
        l.handle = handle;
        l.claimWord = claim_word;
        l.claimLen = claim_len;
        l.costNs = cost;
        return l;
    }

    /** Build a denied lease carrying @p st and the accrued cost. */
    static Lease
    deniedLease(AllocStatus st, double cost)
    {
        Lease l;
        l.st = st;
        l.costNs = cost;
        return l;
    }

    /** Read-only view of a lease for leaseClose() implementations. */
    struct LeaseView
    {
        uint8_t *base;
        uint32_t len;
        uint32_t used;
        uint32_t confirmedBytes;
        uint32_t dummyBytes;
        uint32_t served;
        uint16_t core;
        TicketHandle handle;
        uint64_t claimWord;
        uint32_t claimLen;
    };

    static LeaseView
    viewOf(const Lease &l)
    {
        return {l.base,       l.len,    l.used,   l.confirmedBytes,
                l.dummyBytes, l.served, l.coreId, l.handle,
                l.claimWord,  l.claimLen};
    }

    /** Add @p ns to a lease's accumulated cost (from leaseClose). */
    static void
    chargeLease(Lease &l, double ns)
    {
        l.costNs += ns;
    }

    const CostModel &costs;

  private:
    std::atomic<TracerObserver *> observer{nullptr};
    /** Effective control snapshot; nullptr = all-defaults (no gate). */
    std::atomic<const ControlSnapshot *> control{nullptr};
    /** Armed cost profiler; nullptr = probes disarmed (the default). */
    std::atomic<CostProfiler *> profiler{nullptr};
};

inline const CostModel &
Lease::model() const
{
    BTRACE_DASSERT(owner != nullptr, "model() on a closed lease");
    return owner->costs;
}

inline WriteTicket
Lease::allocate(uint32_t payload_len)
{
    WriteTicket ticket;
    ticket.core = coreId;
    ticket.thread = threadId;
    if (st != AllocStatus::Ok || owner == nullptr) {
        ticket.status = st == AllocStatus::Ok ? AllocStatus::Retry : st;
        return ticket;
    }
    if (base == nullptr) {
        // Fallback mode: one ordinary allocate per entry. Report
        // exhaustion after the budgeted entry count so callers renew
        // on the same cadence as with a batched lease.
        if (budget == 0) {
            ticket.status = AllocStatus::Retry;
            return ticket;
        }
        ticket = owner->allocate(coreId, threadId, payload_len);
        if (ticket.status == AllocStatus::Ok) {
            --budget;
            ++served;
            costNs += ticket.cost;
        }
        return ticket;
    }
    // Bump-phase probe (DESIGN.md §14): covers the span check and the
    // pointer arithmetic below. Disarmed this is one relaxed load and
    // a branch; armed it is two TSC reads into a thread-local shard.
    PhaseProbe probe(owner->activeProfiler(), ProfilePhase::Bump);
    const auto need = static_cast<uint32_t>(
        EntryLayout::normalSize(payload_len));
    if (used + need > len) {
        ticket.status = AllocStatus::Retry;  // span exhausted; renew
        return ticket;
    }
    // Fast path of the fast path: serve from the leased span with
    // plain arithmetic — no shared RMW, no CAS, no counter traffic.
    ticket.dst = base + used;
    ticket.entrySize = need;
    ticket.leased = true;
    ticket.status = AllocStatus::Ok;
    ticket.cost = owner->costs.tscRead + owner->costs.leaseBump;
    used += need;
    ++served;
    costNs += ticket.cost;
    return ticket;
}

inline void
Lease::confirm(WriteTicket &ticket)
{
    BTRACE_DASSERT(ticket.status == AllocStatus::Ok,
                   "lease confirm without Ok");
    if (!ticket.leased) {
        owner->confirm(ticket);
        costNs += ticket.cost;
        return;
    }
    confirmedBytes += ticket.entrySize;  // published in bulk at close()
}

inline void
Lease::abandon(WriteTicket &ticket)
{
    BTRACE_DASSERT(ticket.status == AllocStatus::Ok,
                   "lease abandon without Ok");
    if (!ticket.leased) {
        owner->abandonWrite(ticket);
        costNs += ticket.cost;
        return;
    }
    writeDummy(ticket.dst, ticket.entrySize);
    confirmedBytes += ticket.entrySize;
    dummyBytes += ticket.entrySize;
}

inline void
Lease::close()
{
    if (owner == nullptr)
        return;
    const double before = costNs;
    if (base != nullptr)
        owner->leaseClose(*this);
    if (TracerObserver *o = owner->attachedObserver())
        o->maybeLeaseCloseSample(costNs - before);
    owner = nullptr;
    base = nullptr;
}

/**
 * RAII guard over one two-phase write: allocates in the constructor,
 * auto-confirms when the scope exits normally, and auto-abandons
 * (dummy-fills the granted space) when the scope unwinds through an
 * exception — the granted bytes are accounted either way, so a block
 * is never left incomplete by an early exit.
 *
 * Construct from a Tracer (optionally Blocking: spin on Retry with
 * each spin charged at CostModel::retryBackoff) or from an open
 * Lease (served by the lease's bump path when batched).
 */
class ScopedWrite
{
  public:
    enum Policy
    {
        NonBlocking,  //!< surface Retry to the caller
        Blocking,     //!< spin on Retry (charged per spin)
    };

    ScopedWrite(Tracer &t, uint16_t core, uint32_t thread,
                uint32_t payload_len, Policy policy = NonBlocking);

    ScopedWrite(Lease &lease, uint32_t payload_len);

    ScopedWrite(const ScopedWrite &) = delete;
    ScopedWrite &operator=(const ScopedWrite &) = delete;

    ~ScopedWrite();

    AllocStatus status() const { return ticket.status; }
    bool ok() const { return ticket.status == AllocStatus::Ok; }
    uint8_t *data() const { return ticket.dst; }
    uint32_t size() const { return ticket.entrySize; }
    double cost() const { return ticket.cost; }

    /** Write a normal entry into the granted space (charges copy). */
    void fill(uint64_t stamp, uint16_t category = 0);

    /** Confirm now instead of at scope exit. Idempotent. */
    void commit();

    /** Dummy-fill and confirm the granted space now. Idempotent. */
    void abandon();

  private:
    Tracer *tracer = nullptr;
    Lease *lease = nullptr;
    WriteTicket ticket;
    uint32_t payloadLen = 0;
    bool done = false;
    int exceptionsOnEntry = 0;
};

} // namespace btrace

#endif // BTRACE_TRACE_TRACER_H
