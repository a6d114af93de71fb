#include "trace/tracer.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "control/snapshot.h"

namespace btrace {

bool
Tracer::shouldRecord(uint16_t category, uint32_t thread,
                     uint64_t stamp) const
{
    // The entire cost at defaults: one load, one branch. Acquire, not
    // relaxed: a non-null snapshot was built just before its release
    // store, and its fields are read below (a plain load on x86).
    const ControlSnapshot *cs =
        control.load(std::memory_order_acquire);
    if (cs == nullptr) [[likely]]
        return true;
    return cs->shouldRecord(category, thread, stamp);
}

void
Tracer::abandonWrite(WriteTicket &ticket)
{
    BTRACE_DASSERT(ticket.status == AllocStatus::Ok,
                   "abandon without Ok");
    writeDummy(ticket.dst, ticket.entrySize);
    ticket.cost += costs.copy(8);
    confirm(ticket);
}

Lease
Tracer::lease(uint16_t core, uint32_t thread, uint32_t payload_hint,
              uint32_t n)
{
    (void)payload_hint;
    // Single-entry fallback: a budgeted pass-through so callers using
    // the lease/renew cadence drive this tracer's ordinary write path
    // one entry at a time (comparable operation counts, §5).
    Lease l;
    l.owner = this;
    l.st = AllocStatus::Ok;
    l.coreId = core;
    l.threadId = thread;
    l.budget = std::max(1u, n);
    return l;
}

Dump
Tracer::dumpFrom(DumpCursor &cursor, const DumpOptions &opts)
{
    (void)opts;
    // Trivial full-snapshot cursor: re-dump and keep entries above the
    // stamp high-water mark. Stamps are the replay's monotone logic
    // clock, so this returns exactly the new entries for every
    // baseline without per-design cursor support.
    Dump d = dump();
    uint64_t high = cursor.position;
    auto keep = d.entries.begin();
    for (const DumpEntry &e : d.entries) {
        if (e.stamp > cursor.position) {
            high = std::max(high, e.stamp);
            *keep++ = e;
        }
    }
    d.entries.erase(keep, d.entries.end());
    cursor.position = high;
    return d;
}

bool
Tracer::record(uint16_t core, uint32_t thread, uint64_t stamp,
               uint32_t payload_len, uint16_t category, double *cost_out)
{
    // Control-plane sampling gate. A sampled-out event is shed
    // *deliberately* — the caller is told true (not a drop), and loss
    // accounting is untouched: sampling is policy, dropping is
    // failure.
    if (!shouldRecord(category, thread, stamp)) {
        if (cost_out)
            *cost_out = 0.0;
        return true;
    }
    ScopedWrite w(*this, core, thread, payload_len,
                  ScopedWrite::Blocking);
    if (!w.ok()) {
        if (cost_out)
            *cost_out = w.cost();
        return false;  // Drop: shed by design
    }
    w.fill(stamp, category);
    w.commit();
    if (cost_out)
        *cost_out = w.cost();
    // Self-observation: 1-in-K sampled latency of successful writes
    // (observer.h). The skip path is a TLS tick and a branch; no
    // shared RMW is ever added to the tracer's own accounting.
    if (TracerObserver *o = attachedObserver())
        o->maybeRecordSample(w.cost());
    return true;
}

ScopedWrite::ScopedWrite(Tracer &t, uint16_t core, uint32_t thread,
                         uint32_t payload_len, Policy policy)
    : tracer(&t), payloadLen(payload_len),
      exceptionsOnEntry(std::uncaught_exceptions())
{
    // Each failed acquire costs the caller a spin-and-backoff before
    // the next attempt; charging it here keeps latency distributions
    // honest about contention instead of resetting per attempt.
    double accrued = 0.0;
    for (;;) {
        ticket = t.allocate(core, thread, payload_len);
        ticket.cost += accrued;
        if (ticket.status != AllocStatus::Retry ||
            policy == NonBlocking)
            return;
        accrued = ticket.cost + t.model().retryBackoff;
        // Retry-phase probe: the backoff yield between failed
        // acquires. The allocate() above carries its own claim/retry
        // probes, so only the wait itself is attributed here.
        PhaseProbe probe(t.activeProfiler(), ProfilePhase::Retry);
        std::this_thread::yield();
    }
}

ScopedWrite::ScopedWrite(Lease &l, uint32_t payload_len)
    : lease(&l), payloadLen(payload_len),
      exceptionsOnEntry(std::uncaught_exceptions())
{
    ticket = l.allocate(payload_len);
}

ScopedWrite::~ScopedWrite()
{
    if (!ok() || done)
        return;
    if (std::uncaught_exceptions() > exceptionsOnEntry)
        abandon();
    else
        commit();
}

void
ScopedWrite::fill(uint64_t stamp, uint16_t category)
{
    BTRACE_DASSERT(ok(), "fill without Ok");
    writeNormal(ticket.dst, stamp, ticket.core, ticket.thread, category,
                payloadLen);
    const CostModel &m = lease ? lease->model() : tracer->model();
    ticket.cost += m.copy(ticket.entrySize);
}

void
ScopedWrite::commit()
{
    if (!ok() || done)
        return;
    done = true;
    if (lease)
        lease->confirm(ticket);
    else
        tracer->confirm(ticket);
}

void
ScopedWrite::abandon()
{
    if (!ok() || done)
        return;
    done = true;
    if (lease)
        lease->abandon(ticket);
    else
        tracer->abandonWrite(ticket);
}

} // namespace btrace
