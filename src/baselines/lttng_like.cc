#include "baselines/lttng_like.h"

#include "trace/event.h"

namespace btrace {

LttngLike::LttngLike(const LttngConfig &config, const CostModel &model)
    : Tracer(model), cfg(config)
{
    BTRACE_ASSERT(cfg.cores >= 1 && cfg.subBuffers >= 2,
                  "need >= 1 core and >= 2 sub-buffers");
    perCore = (cfg.capacityBytes / cfg.cores) & ~std::size_t(7);
    subBytes = (perCore / cfg.subBuffers) & ~std::size_t(7);
    BTRACE_ASSERT(subBytes >= 4096, "sub-buffer too small");

    coresState.reserve(cfg.cores);
    for (unsigned c = 0; c < cfg.cores; ++c) {
        auto cs = std::make_unique<CoreState>(subBytes * cfg.subBuffers,
                                              cfg.subBuffers);
        // Sub-buffer s starts pre-reset for generation s (empty).
        for (unsigned s = 0; s < cfg.subBuffers; ++s)
            cs->subs[s].seq.store(s, std::memory_order_relaxed);
        coresState.push_back(std::move(cs));
    }
}

std::size_t
LttngLike::capacityBytes() const
{
    return subBytes * cfg.subBuffers * cfg.cores;
}

WriteTicket
LttngLike::allocate(uint16_t core, uint32_t thread, uint32_t payload_len)
{
    BTRACE_DASSERT(core < cfg.cores, "core id out of range");
    const auto need = static_cast<uint32_t>(
        EntryLayout::normalSize(payload_len));
    BTRACE_DASSERT(need <= subBytes, "entry larger than a sub-buffer");

    WriteTicket ticket;
    ticket.core = core;
    ticket.thread = thread;
    // Context/TLS lookup, clock read, CTF field serialization — the
    // userspace framework cost LTTng pays per event.
    ticket.cost = costs.tlsLookup + costs.tscRead +
                  costs.lttngFramework + costs.setupOverhead;

    CoreState &cs = *coresState[core];
    for (int attempt = 0; attempt < 64; ++attempt) {
        const uint64_t gen = cs.curSeq.load(std::memory_order_acquire);
        SubBuf &sub = cs.subs[gen % cfg.subBuffers];
        if (sub.seq.load(std::memory_order_acquire) != gen)
            continue;  // switch in progress

        uint32_t r = sub.reserved.load(std::memory_order_acquire);
        bool switched = false;
        for (;;) {
            if (r + need > subBytes) {
                const SwitchResult sr = trySwitch(cs, gen, ticket.cost);
                if (sr == SwitchResult::WouldDrop) {
                    dropped.fetch_add(1, std::memory_order_relaxed);
                    ticket.status = AllocStatus::Drop;
                    return ticket;
                }
                switched = true;
                break;
            }
            if (sub.reserved.compare_exchange_weak(
                    r, r + need, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                ticket.dst = subBase(cs, gen) + r;
                ticket.entrySize = need;
                ticket.handle.slot = core;
                ticket.handle.aux = gen;
                ticket.status = AllocStatus::Ok;
                ticket.cost += 2 * costs.atomicLocal;
                return ticket;
            }
        }
        if (switched)
            continue;
    }

    ticket.status = AllocStatus::Retry;
    return ticket;
}

LttngLike::SwitchResult
LttngLike::trySwitch(CoreState &cs, uint64_t gen, double &cost)
{
    const uint64_t next = gen + 1;
    SubBuf &target = cs.subs[next % cfg.subBuffers];

    const uint64_t tseq = target.seq.load(std::memory_order_acquire);
    if (tseq >= next) {
        // The target is already reset for (at least) the next
        // generation — initially, or by a concurrent switcher. Help
        // the current-sequence counter along.
        uint64_t expected = gen;
        cs.curSeq.compare_exchange_strong(expected, next,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed);
        return SwitchResult::Switched;
    }

    // The target still serves generation next - S; it must be fully
    // committed before it can be recycled. If a preempted writer holds
    // an uncommitted reservation, LTTng drops the incoming event.
    if (target.committed.load(std::memory_order_acquire) !=
        target.reserved.load(std::memory_order_acquire))
        return SwitchResult::WouldDrop;

    if (cs.switchLock.test_and_set(std::memory_order_acquire))
        return SwitchResult::Switched;  // let the winner finish

    if (cs.curSeq.load(std::memory_order_acquire) == gen) {
        // Pad the tail of the current sub-buffer so it tiles.
        SubBuf &cur = cs.subs[gen % cfg.subBuffers];
        uint32_t r = cur.reserved.load(std::memory_order_acquire);
        while (r < subBytes) {
            if (cur.reserved.compare_exchange_weak(
                    r, static_cast<uint32_t>(subBytes),
                    std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                writeDummy(subBase(cs, gen) + r,
                           static_cast<uint32_t>(subBytes) - r);
                cur.committed.fetch_add(
                    static_cast<uint32_t>(subBytes) - r,
                    std::memory_order_acq_rel);
                break;
            }
        }

        // Recycle the target for the next generation (its previous
        // contents — the oldest data of this core — are discarded).
        if (target.committed.load(std::memory_order_acquire) ==
            target.reserved.load(std::memory_order_acquire)) {
            target.reserved.store(0, std::memory_order_relaxed);
            target.committed.store(0, std::memory_order_relaxed);
            target.seq.store(next, std::memory_order_release);
            cs.curSeq.store(next, std::memory_order_release);
        } else {
            cs.switchLock.clear(std::memory_order_release);
            return SwitchResult::WouldDrop;
        }
    }
    cs.switchLock.clear(std::memory_order_release);
    cost += 3 * costs.atomicLocal;
    return SwitchResult::Switched;
}

void
LttngLike::confirm(WriteTicket &ticket)
{
    BTRACE_DASSERT(ticket.status == AllocStatus::Ok, "confirm without Ok");
    CoreState &cs = *coresState[ticket.handle.slot];
    SubBuf &sub = cs.subs[ticket.handle.aux % cfg.subBuffers];
    sub.committed.fetch_add(ticket.entrySize, std::memory_order_acq_rel);
    ticket.cost += costs.atomicLocal;
}

Dump
LttngLike::dump()
{
    Dump out;
    for (auto &csp : coresState) {
        CoreState &cs = *csp;
        for (unsigned s = 0; s < cfg.subBuffers; ++s) {
            SubBuf &sub = cs.subs[s];
            const uint32_t r = sub.reserved.load(std::memory_order_acquire);
            const uint32_t c = sub.committed.load(std::memory_order_acquire);
            if (r == 0)
                continue;
            if (r != c) {
                ++out.unreadableBlocks;
                continue;
            }
            const uint64_t gen = sub.seq.load(std::memory_order_acquire);
            EntryCursor cursor(subBase(cs, gen), r);
            EntryView view;
            while (cursor.next(view)) {
                if (view.type != EntryType::Normal)
                    continue;
                out.entries.push_back(
                    DumpEntry{view.stamp, view.size, view.core,
                              view.thread, view.category, view.payloadOk});
            }
            if (cursor.malformed())
                ++out.abandonedBlocks;
        }
    }
    return out;
}

} // namespace btrace
