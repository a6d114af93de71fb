#include "trace/tracer.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "control/snapshot.h"

namespace btrace {

bool
Tracer::sampled(const ControlSnapshot &cs, uint16_t category,
                uint32_t thread, uint64_t stamp)
{
    return cs.shouldRecord(category, thread, stamp);
}

void
Tracer::abandonWrite(WriteTicket &ticket)
{
    BTRACE_DASSERT(ticket.status == AllocStatus::Ok,
                   "abandon without Ok");
    writeDummy(ticket.dst, ticket.entrySize);
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

bool
Tracer::record(uint16_t core, uint32_t thread, uint64_t stamp,
               uint32_t payload_len, uint16_t category)
{
    // Control-plane sampling gate. A sampled-out event is shed
    // *deliberately* — the caller is told true (not a drop), and loss
    // accounting is untouched: sampling is policy, dropping is
    // failure.
    if (!shouldRecord(category, thread, stamp))
        return true;
    for (;;) {
        WriteTicket t = allocate(core, thread, payload_len);
        if (t.status == AllocStatus::Ok) {
            writeNormal(t.dst, stamp, t.core, t.thread, category,
                        payload_len);
            confirm(t);
            return true;
        }
        if (t.status == AllocStatus::Drop)
            return false;  // shed by design
        // Retry-phase probe: the backoff yield, as in ScopedWrite.
        PhaseProbe probe(activeProfiler(), ProfilePhase::Retry);
        std::this_thread::yield();
    }
}

ScopedWrite::ScopedWrite(Tracer &t, uint16_t core, uint32_t thread,
                         uint32_t payload_len, Policy policy)
    : tracer(&t), payloadLen(payload_len),
      exceptionsOnEntry(std::uncaught_exceptions())
{
    for (;;) {
        ticket = t.allocate(core, thread, payload_len);
        if (ticket.status != AllocStatus::Retry ||
            policy == NonBlocking)
            return;
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
