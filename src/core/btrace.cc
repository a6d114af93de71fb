#include "core/btrace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <unistd.h>

#include "common/test_hooks.h"

namespace btrace {

namespace {

/**
 * Rounds are 32-bit (packed64.h); a global position past 2^32 rounds
 * of one metadata block would silently alias older rounds and corrupt
 * every round comparison. That is ~10^13 events with the default
 * geometry — unreachable in practice, but it must fail loudly, not
 * wrap: an aliased round re-locks a block that still has live data.
 */
inline uint32_t
checkedRound(uint64_t pos, std::size_t num_active)
{
    const uint64_t rnd = pos / num_active;
    BTRACE_ASSERT(rnd <= 0xffffffffull,
                  "32-bit metadata round overflow at this position");
    return static_cast<uint32_t>(rnd);
}

} // namespace

BTraceCounters::Snapshot
BTraceCounters::sum(const BTraceCounters *shards, std::size_t n)
{
    Snapshot s;
    const auto ld = [](const std::atomic<uint64_t> &a) {
        return a.load(std::memory_order_relaxed);
    };
    for (const BTraceCounters *c = shards; c != shards + n; ++c) {
        s.fastAllocs += ld(c->fastAllocs);
        s.boundaryFills += ld(c->boundaryFills);
        s.staleAllocs += ld(c->staleAllocs);
        s.advances += ld(c->advances);
        s.skips += ld(c->skips);
        s.closes += ld(c->closes);
        s.lockRaces += ld(c->lockRaces);
        s.coreRaces += ld(c->coreRaces);
        s.wouldBlock += ld(c->wouldBlock);
        s.dummyBytes += ld(c->dummyBytes);
        s.resizes += ld(c->resizes);
        s.sharedRmws += ld(c->sharedRmws);
        s.leases += ld(c->leases);
        s.leaseEntries += ld(c->leaseEntries);
        s.leasedOutstanding += ld(c->leasedOutstanding);
    }
    return s;
}

BTraceCounters::Snapshot
BTraceCounters::Snapshot::operator-(const Snapshot &base) const
{
    Snapshot d;
    d.fastAllocs = fastAllocs - base.fastAllocs;
    d.boundaryFills = boundaryFills - base.boundaryFills;
    d.staleAllocs = staleAllocs - base.staleAllocs;
    d.advances = advances - base.advances;
    d.skips = skips - base.skips;
    d.closes = closes - base.closes;
    d.lockRaces = lockRaces - base.lockRaces;
    d.coreRaces = coreRaces - base.coreRaces;
    d.wouldBlock = wouldBlock - base.wouldBlock;
    d.dummyBytes = dummyBytes - base.dummyBytes;
    d.resizes = resizes - base.resizes;
    d.sharedRmws = sharedRmws - base.sharedRmws;
    d.leases = leases - base.leases;
    d.leaseEntries = leaseEntries - base.leaseEntries;
    d.leasedOutstanding = leasedOutstanding - base.leasedOutstanding;
    return d;
}

VirtualSpan
BTrace::makeSpan(const BTraceConfig &config)
{
    StorageOptions o;
    o.kind = config.storage;
    o.bytes = config.effectiveMaxBlocks() * config.blockSize;
    o.path = config.arenaPath;
    // Arena backends carve a control region between the flight region
    // and the data area; the tracer's coordination words live there so
    // other processes can attach (arena_control.h).
    if (config.storage != StorageKind::Private)
        o.ctrlBytes = ctrlBytesFor(config.cores, config.activeBlocks);
    return VirtualSpan(makeStorageBackend(o));
}

void
BTrace::bindControl()
{
    const std::size_t need = ctrlBytesFor(cfg.cores, numActive);
    uint8_t *base = span.backend()->ctrlRegion();
    if (base != nullptr) {
        shared = true;
    } else {
        // Private backend: same layout on the heap. The registry and
        // owner-table sections exist but are never touched (shared ==
        // false gates every use), so the fast path is byte-identical
        // to the pre-multiprocess tracer.
        const std::size_t bytes = alignUp(need, std::size_t(128));
        auto *p = static_cast<uint8_t *>(std::aligned_alloc(128, bytes));
        BTRACE_ASSERT(p != nullptr, "control-state allocation failed");
        std::memset(p, 0, bytes);
        ctrlHeap = std::unique_ptr<uint8_t, void (*)(uint8_t *)>(
            p, +[](uint8_t *q) { std::free(q); });
        base = p;
    }
    ctrl = ControlView::bind(base, cfg.cores, numActive);
    meta = ctrl.meta;
    global = &**ctrl.global;
    coreLocal = ctrl.coreLocal;
}

BTrace::BTrace(const BTraceConfig &config, const CostModel &model)
    : Tracer(model), cfg(config), cap(config.blockSize),
      numActive(config.activeBlocks), maxN(config.effectiveMaxBlocks()),
      span(makeSpan(config))
{
    if (const Status vst = cfg.validate(); !vst.ok()) {
        std::fprintf(stderr, "btrace: %s\n", vst.toString().c_str());
        BTRACE_FATAL("invalid BTraceConfig (use Session::create for a "
                     "recoverable Status)");
    }

    pid_ = static_cast<uint32_t>(::getpid());
    ctrs = std::make_unique<BTraceCounters[]>(cfg.cores + 1);
    bindControl();

    // Make a dead arena self-describing: record the geometry an
    // offline decoder needs and drop any clean-shutdown mark left by
    // a previous owner of the same backing object.
    if (ArenaHeader *h = span.backend()->header()) {
        h->blockSize.store(cap, std::memory_order_relaxed);
        h->activeBlocks.store(numActive, std::memory_order_relaxed);
        h->numBlocks.store(cfg.numBlocks, std::memory_order_relaxed);
        h->cleanShutdown.store(0, std::memory_order_release);
    }

    if (shared) {
        // Owner initialization of the shared control region. The
        // mapping starts zero-filled on a fresh backing object, but a
        // reused file path may carry a previous life's tables: clear
        // them before publishing ready below.
        std::memset(static_cast<void *>(ctrl.producers), 0,
                    kMaxAttachments * sizeof(ProducerSlot));
        std::memset(static_cast<void *>(ctrl.owners), 0,
                    kLeaseOwnerSlots * sizeof(LeaseOwnerRecord));
        ctrl.hdr->magic = ControlHeader::kMagic;
        ctrl.hdr->version = ControlHeader::kVersion;
        ctrl.hdr->cores = cfg.cores;
        ctrl.hdr->activeBlocks = numActive;
        ctrl.hdr->leaseSeq.store(0, std::memory_order_relaxed);
        ctrl.hdr->sweeps.store(0, std::memory_order_relaxed);
        ctrl.hdr->reclaimedLeases.store(0, std::memory_order_relaxed);
        ctrl.hdr->ready.store(0, std::memory_order_relaxed);
        attachGen = span.backend()->attachGeneration();
    }

    const auto ratio = static_cast<uint32_t>(cfg.ratio());
    BTRACE_ASSERT(ratio <= RatioPos::maxRatio, "ratio exceeds packing");

    // Round 0 is a synthetic, already-complete round: Confirmed.pos ==
    // capacity everywhere, so the first advancement per metadata block
    // locks round >= 1 with no special cases.
    for (std::size_t i = 0; i < numActive; ++i) {
        meta[i].allocated.store(RndPos::pack(0, uint32_t(cap)),
                                std::memory_order_relaxed);
        meta[i].confirmed.store(RndPos::pack(0, uint32_t(cap)),
                                std::memory_order_relaxed);
    }

    ratioLog.stage(0, ratio);
    ratioLog.publish();

    // Cores start parked on distinct round-0 positions; their first
    // allocation overshoots and takes the advancement path.
    for (unsigned c = 0; c < cfg.cores; ++c)
        coreLocal[c]->store(RatioPos::pack(ratio, false, c),
                            std::memory_order_relaxed);
    global->store(RatioPos::pack(ratio, false, numActive),
                  std::memory_order_release);

    span.commit(0, cfg.numBlocks * cap);

    // Control plane last in the init sequence but before the ready
    // publish: the owner wipes the arena control page and posts
    // version 1 (cfg.control) while no attachment can observe it yet.
    plane = std::make_unique<ControlPlane>(
        *this, ControlGeometry{numActive, maxN},
        shared ? ctrl.page : nullptr, /*owner_init=*/true, cfg.control);

    if (shared) {
        // The registry can't be full here: the region was just wiped.
        const bool ok = registerAttachment(/*is_owner=*/true);
        BTRACE_ASSERT(ok, "owner registration failed on a fresh arena");
        // Publish: attachments spin-check ready == 1 (attachArena).
        ctrl.hdr->ready.store(1, std::memory_order_release);
    }
}

BTrace::~BTrace()
{
    if (shared)
        deregisterAttachment();
    if (ArenaHeader *h = span.backend()->header()) {
        // Only the owner stamps the clean-shutdown mark: a detaching
        // secondary leaves the ring live (the owner or other
        // attachments keep producing into it).
        if (owner_) {
            h->numBlocks.store(numBlocks(), std::memory_order_relaxed);
            h->cleanShutdown.store(1, std::memory_order_release);
        }
        span.backend()->sync();
    }
}

uint8_t *
BTrace::blockData(uint64_t phys)
{
    BTRACE_DASSERT(phys < maxN, "physical block out of range");
    return span.resolve(blockRefOf(phys));
}

const uint8_t *
BTrace::blockData(uint64_t phys) const
{
    BTRACE_DASSERT(phys < maxN, "physical block out of range");
    return span.resolve(blockRefOf(phys));
}

uint64_t
BTrace::physicalOf(uint64_t pos) const
{
    const uint64_t n = numActive * ratioLog.ratioAt(pos);
    return pos % n;
}

std::size_t
BTrace::capacityBytes() const
{
    return numBlocks() * cap;
}

std::size_t
BTrace::numBlocks() const
{
    const auto g = RatioPos::unpack(
        global->load(std::memory_order_acquire));
    return numActive * g.ratio;
}

uint64_t
BTrace::headPosition() const
{
    return RatioPos::unpack(global->load(std::memory_order_acquire))
        .pos;
}

ActiveBlockOccupancy
BTrace::occupancy() const
{
    // Monitoring-grade scan: each slot read is internally consistent
    // (one Confirmed load, one Allocated load), the set of slots is
    // not a linearizable cut. Safe concurrently with producers.
    ActiveBlockOccupancy occ;
    for (std::size_t i = 0; i < numActive; ++i) {
        const MetadataBlock &m = meta[i];
        const RndPos conf = m.loadConfirmed();
        if (conf.pos >= cap) {
            ++occ.complete;
            continue;
        }
        const RndPos alloc = m.loadAllocated();
        if (alloc.rnd == conf.rnd && alloc.pos == conf.pos)
            ++occ.open;
        else
            ++occ.incomplete;
    }
    return occ;
}

std::vector<MetaSlotState>
BTrace::slotStates() const
{
    std::vector<MetaSlotState> out(numActive);
    out.resize(slotStatesInto(out.data(), out.size()));
    return out;
}

std::size_t
BTrace::slotStatesInto(MetaSlotState *out, std::size_t max) const noexcept
{
    // Same monitoring-grade caveat as occupancy(): each word is read
    // atomically, the pair per slot (and the set of slots) is not a
    // linearizable cut. Safe concurrently with producers; used on the
    // flight-recorder capture path, which must never take tracer
    // locks or allocate.
    const std::size_t n = std::min(numActive, max);
    for (std::size_t i = 0; i < n; ++i) {
        const MetadataBlock &m = meta[i];
        const RndPos alloc = m.loadAllocated(std::memory_order_relaxed);
        const RndPos conf = m.loadConfirmed();
        out[i].allocRnd = alloc.rnd;
        out[i].allocPos = alloc.pos;
        out[i].confRnd = conf.rnd;
        out[i].confPos = conf.pos;
    }
    return n;
}

bool
BTrace::writeFlightToArena(const char *bundle, std::size_t len) noexcept
{
    StorageBackend *b = span.backend();
    ArenaHeader *h = b->header();
    uint8_t *dst = b->flightRegion();
    if (h == nullptr || dst == nullptr)
        return false;
    const std::size_t n =
        std::min<std::size_t>(len, h->flightCapacity);
    // Publish protocol for an offline ArenaView racing a crash: len
    // drops to zero before the bytes churn, and only rises to n after
    // every byte landed, so a reader never sees a length covering a
    // half-copied bundle.
    h->flightLen.store(0, std::memory_order_release);
    std::memcpy(dst, bundle, n);
    h->flightLen.store(n, std::memory_order_release);
    b->sync();
    return true;
}

BTrace::Claim
BTrace::claim(uint16_t core, uint32_t need, uint32_t want, double &cost)
{
    BTRACE_DASSERT(core < cfg.cores, "core id out of range");
    BTRACE_DASSERT(need <= want &&
                       want <= cap - EntryLayout::blockHeaderBytes,
                   "claim larger than a data block");

    // One arming load for every probe in this call (DESIGN.md §14).
    CostProfiler *const pf = activeProfiler();
    BTraceCounters &sc = shard(core);

    // Bounded safety valve: with every metadata block held by a
    // preempted writer the advancement loop cannot make progress;
    // report Retry so the caller can reschedule (§3.4).
    for (int attempt = 0; attempt < 64; ++attempt) {
        const uint64_t local_word =
            coreLocal[core]->load(std::memory_order_acquire);
        const RatioPos local = RatioPos::unpack(local_word);
        const std::size_t meta_idx = local.pos % numActive;
        const uint32_t exp_rnd = checkedRound(local.pos, numActive);
        MetadataBlock &m = meta[meta_idx];

        // Guard the fetch_add with a plain load of the same (hot)
        // line: on an exhausted or stolen block an unconditional add
        // would create avoidable dummy obligations and, if producers
        // spin here, pump Pos towards a 32-bit overflow.
        const RndPos pre = m.loadAllocated(std::memory_order_relaxed);
        if (pre.rnd != exp_rnd || pre.pos >= cap) {
            if (coreLocal[core]->load(std::memory_order_acquire) ==
                    local_word &&
                timedAdvance(pf, core, local_word, cost) ==
                    AdvanceResult::WouldBlock)
                break;
            continue;
        }

        // Critical window: the metadata can be re-locked for a newer
        // round between the core-local read above and this fetch_add,
        // turning the reservation stale (§3.2).
        BTRACE_TEST_YIELD(ReservePreClaim);

        uint64_t claimed;
        {
            // Claim-phase probe: the reservation FAA itself.
            PhaseProbe probe(pf, ProfilePhase::Claim);
            claimed =
                m.allocated.fetch_add(want, std::memory_order_acq_rel);
        }
        const RndPos old = RndPos::unpack(claimed);
        sc.sharedRmws.fetch_add(1, std::memory_order_relaxed);
        cost += costs.atomicLocal;

        if (old.rnd == exp_rnd) {
            if (old.pos + need <= cap) {
                // Fast path (§4.1): space granted in our core's block,
                // possibly short of want near the block end. The
                // overshoot beyond capacity, if any, only marks the
                // block exhausted.
                const uint64_t phys =
                    local.pos % (numActive * local.ratio);
                Claim c;
                c.dst = blockData(phys) + old.pos;
                c.word = claimed;
                c.blockPos = local.pos;
                c.slot = static_cast<uint32_t>(meta_idx);
                c.len = static_cast<uint32_t>(
                    std::min<uint64_t>(want, cap - old.pos));
                return c;
            }

            if (old.pos < cap) {
                // Insufficient tail: fill it with a dummy entry and
                // confirm it (§4.1, Fig 8c), then advance.
                const uint64_t phys =
                    local.pos % (numActive * local.ratio);
                const auto gap = static_cast<uint32_t>(cap - old.pos);
                writeDummy(blockData(phys) + old.pos, gap);
                // Critical window: the tail dummy is written but not
                // yet confirmed; the block stays incomplete and must
                // be skipped, never re-locked, until the confirm.
                BTRACE_TEST_YIELD(AllocPreBoundaryConfirm);
                m.confirmed.fetch_add(gap, std::memory_order_acq_rel);
                sc.sharedRmws.fetch_add(1, std::memory_order_relaxed);
                sc.boundaryFills.fetch_add(1, std::memory_order_relaxed);
                sc.dummyBytes.fetch_add(gap, std::memory_order_relaxed);
                cost += costs.atomicLocal + costs.copy(8);
                journalEmit(JournalEventKind::BlockClose, core,
                            local.pos,
                            uint64_t(BlockCloseReason::Full));
            }

            // Block exhausted: advance to a fresh one (§4.2).
            if (timedAdvance(pf, core, local_word, cost) ==
                AdvanceResult::WouldBlock)
                break;
            continue;
        }

        BTRACE_DASSERT(old.rnd > exp_rnd,
                       "reservation round ran behind the core-local view");

        // Stale reservation: the metadata was re-locked for a newer
        // round between our core-local read and the fetch_add. This
        // happens when our core's lagging block was closed and stolen
        // by a wrap-around producer (§3.2). We own [old.pos,
        // old.pos+want) of the *new* round's block; fill the
        // in-capacity part with a dummy and confirm so that block
        // still completes.
        sc.staleAllocs.fetch_add(1, std::memory_order_relaxed);
        if (old.pos < cap) {
            const auto fill = static_cast<uint32_t>(
                std::min<uint64_t>(want, cap - old.pos));
            const uint64_t stale_pos =
                uint64_t(old.rnd) * numActive + meta_idx;
            writeDummy(blockData(physicalOf(stale_pos)) + old.pos, fill);
            // Critical window: the stale-round dummy obligation is
            // written but unconfirmed; the new round's block cannot
            // complete until this confirm lands.
            BTRACE_TEST_YIELD(AllocPreStaleConfirm);
            m.confirmed.fetch_add(fill, std::memory_order_acq_rel);
            sc.sharedRmws.fetch_add(1, std::memory_order_relaxed);
            sc.dummyBytes.fetch_add(fill, std::memory_order_relaxed);
        }

        // If no other thread of this core has installed a fresh block
        // in the meantime, it is on us to advance; otherwise just
        // re-read the updated core-local word.
        if (coreLocal[core]->load(std::memory_order_acquire) ==
                local_word &&
            timedAdvance(pf, core, local_word, cost) ==
                AdvanceResult::WouldBlock)
            break;
    }

    sc.wouldBlock.fetch_add(1, std::memory_order_relaxed);
    return Claim{};
}

WriteTicket
BTrace::allocate(uint16_t core, uint32_t thread, uint32_t payload_len)
{
    const auto need = static_cast<uint32_t>(
        EntryLayout::normalSize(payload_len));

    WriteTicket ticket;  // status Retry until claimed
    ticket.core = core;
    ticket.thread = thread;
    ticket.cost = costs.tscRead + costs.setupOverhead;

    const Claim c = claim(core, need, need, ticket.cost);
    if (c.dst == nullptr)
        return ticket;
    ticket.dst = c.dst;
    ticket.entrySize = need;
    ticket.handle.slot = c.slot;
    ticket.status = AllocStatus::Ok;
    shard(core).fastAllocs.fetch_add(1, std::memory_order_relaxed);
    return ticket;
}

void
BTrace::confirm(WriteTicket &ticket)
{
    BTRACE_DASSERT(ticket.status == AllocStatus::Ok, "confirm without Ok");
    BTRACE_DASSERT(!ticket.leased, "leased tickets confirm via the lease");
    publish(ticket.core, ticket.handle.slot, ticket.entrySize);
    ticket.cost += costs.atomicLocal;
}

void
BTrace::abandonWrite(WriteTicket &ticket)
{
    BTRACE_DASSERT(ticket.status == AllocStatus::Ok, "abandon without Ok");
    writeDummy(ticket.dst, ticket.entrySize);
    shard(ticket.core).dummyBytes.fetch_add(ticket.entrySize,
                                            std::memory_order_relaxed);
    confirm(ticket);
}

bool
BTrace::record(uint16_t core, uint32_t thread, uint64_t stamp,
               uint32_t payload_len, uint16_t category)
{
    // Sampling gate as in Tracer::record: shed by policy, not dropped.
    if (!shouldRecord(category, thread, stamp))
        return true;
    const auto need = static_cast<uint32_t>(
        EntryLayout::normalSize(payload_len));
    // allocate() + writeNormal() + confirm() and nothing else: no
    // ticket, no RAII guard (nothing between the grant and the confirm
    // can throw), and claim()'s modeled cost goes to a local nothing
    // reads.
    double unread = 0.0;
    for (;;) {
        const Claim c = claim(core, need, need, unread);
        if (c.dst != nullptr) {
            shard(core).fastAllocs.fetch_add(1, std::memory_order_relaxed);
            writeNormal(c.dst, stamp, core, thread, category, payload_len);
            publish(core, c.slot, need);
            return true;
        }
        PhaseProbe probe(activeProfiler(), ProfilePhase::Retry);
        std::this_thread::yield();
    }
}

Lease
BTrace::lease(uint16_t core, uint32_t thread, uint32_t payload_hint,
              uint32_t n)
{
    const auto need = static_cast<uint32_t>(
        EntryLayout::normalSize(payload_hint));
    // A lease never spans blocks: cap the span at what a fresh block
    // can hold, so a huge n degenerates to one-lease-per-block.
    const auto want = static_cast<uint32_t>(std::min<uint64_t>(
        uint64_t(need) * std::max(1u, n),
        cap - EntryLayout::blockHeaderBytes));

    double cost = costs.tscRead + costs.setupOverhead;
    const Claim c = claim(core, need, want, cost);
    if (c.dst == nullptr)
        return deniedLease(AllocStatus::Retry, cost);

    BTraceCounters &sc = shard(core);
    const uint64_t count = sc.leases.fetch_add(1, std::memory_order_relaxed);
    sc.leasedOutstanding.fetch_add(c.len, std::memory_order_relaxed);
    journalEmit(JournalEventKind::LeaseGrant, core, c.blockPos, c.len);
    TicketHandle handle;
    handle.slot = c.slot;
    // Multi-process arenas stamp an ownership record so a sweeper can
    // reclaim the span if we die holding it. aux == 0 means untracked
    // (private backend, or the owner table was full). Not charged to
    // sharedRmws: robustness plane, not the §4.1 write protocol. The
    // record's leaseSeq comes from this core's own lease count, unique
    // and nonzero per attachment.
    if (shared) {
        const RndPos at = RndPos::unpack(c.word);
        handle.aux = registerLeaseOwner(c.slot, at.rnd, at.pos, c.len,
                                        c.blockPos,
                                        count * cfg.cores + core + 1);
    }
    // The claim's own word and length let close() hand an unused tail
    // back while nothing has reserved after it.
    return grantLease(*this, core, thread, c.dst, c.len, handle, cost,
                      c.word, want);
}

void
BTrace::leaseClose(const Lease &l)
{
    const LeaseView v = viewOf(l);
    const uint32_t remainder = v.len - v.used;
    CostProfiler *const pf = activeProfiler();
    BTraceCounters &sc = shard(v.core);
    LeaseOwnerRecord *rec = nullptr;
    uint32_t filled = 0;  // remainder returned as a dummy entry
    {
        // Lease-renew-phase probe (DESIGN.md §14): the close-side
        // overhead a renewal pays — owner-record CAS, then the tail
        // give-back CAS or the remainder dummy fill. The bulk confirm
        // FAA lands in the publish phase below, so the two buckets
        // never overlap.
        PhaseProbe renewProbe(pf, ProfilePhase::LeaseRenew);

        // Critical window: nothing of the close has happened yet — the
        // whole span is claimed and unconfirmed, and the block stays
        // incomplete (skipped, never re-locked) until the bulk confirm
        // below. A producer killed here is still Active in the owner
        // table, so a sweeper reclaims the whole span cleanly.
        BTRACE_TEST_YIELD(LeasePreCloseConfirm);

        // Owner-record close protocol (DESIGN.md §11): Active ->
        // Closing before anything of the span changes hands, Free
        // after the bulk confirm. A sweeper only ever claims Active
        // records, so once our CAS lands it can never confirm this
        // span a second time, nor dummy-fill a tail we hand back. Not
        // charged to sharedRmws: robustness plane, never executed on
        // the private backend.
        if (shared && v.handle.aux != 0) {
            rec = &ctrl.owners[v.handle.aux - 1];
            uint32_t expect = LeaseOwnerRecord::Active;
            if (!rec->state.compare_exchange_strong(
                    expect, LeaseOwnerRecord::Closing,
                    std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                // A sweeper concluded we were dead (pid reuse, or a
                // registry mishap) and owns the record: it
                // dummy-fills and confirms the span on our behalf.
                // Publishing too would double-confirm, so drop ours;
                // keep the level counter and the entry tally sane.
                sc.leasedOutstanding.fetch_sub(
                    v.confirmedBytes + remainder,
                    std::memory_order_relaxed);
                sc.leaseEntries.fetch_add(v.served,
                                          std::memory_order_relaxed);
                return;
            }
        }

        if (remainder > 0 && !giveBackTail(v)) {
            // Not handed back (see giveBackTail): return the unused
            // span as one dummy entry so every leased byte is
            // confirmed exactly once (DESIGN.md §3).
            writeDummy(v.base + v.used, remainder);
            filled = remainder;
        }
    }
    const uint32_t publish = v.confirmedBytes + filled;
    if (publish > 0) {
        {
            // Publish-phase probe: the bulk confirm FAA.
            PhaseProbe probe(pf, ProfilePhase::Publish);
            meta[v.handle.slot].confirmed.fetch_add(
                publish, std::memory_order_acq_rel);
        }
        sc.sharedRmws.fetch_add(1, std::memory_order_relaxed);
    }
    if (rec != nullptr)
        rec->state.store(LeaseOwnerRecord::Free,
                         std::memory_order_release);
    sc.leaseEntries.fetch_add(v.served, std::memory_order_relaxed);
    if (v.dummyBytes + filled > 0) {
        sc.dummyBytes.fetch_add(v.dummyBytes + filled,
                                std::memory_order_relaxed);
    }
    // Returned and published bytes both leave the outstanding level;
    // only served-but-unconfirmed slots stay behind.
    sc.leasedOutstanding.fetch_sub(v.confirmedBytes + remainder,
                                   std::memory_order_relaxed);
    // Journal only the anomalous closes: an abandoned lease (granted,
    // served nothing) or an early revoke returning unused bytes. The
    // clean fully-used close is the hot path and says nothing.
    if (v.served == 0 && v.len > 0)
        journalEmit(JournalEventKind::LeaseAbandon, v.core,
                    v.handle.slot, v.len);
    else if (remainder > 0)
        journalEmit(JournalEventKind::LeaseRevoke, v.core,
                    v.handle.slot, remainder);
}

bool
BTrace::giveBackTail(const LeaseView &v)
{
    // A lease that served nothing gives its whole span up: handed
    // back, a renewal with the same hint would be granted the same
    // span, and a caller whose next entry does not fit it would renew
    // forever. A tail no entry can fit would only move its dummy fill
    // to the next reservation's boundary path, at two more RMWs.
    if (v.served == 0 || v.len - v.used < EntryLayout::normalSize(0))
        return false;
    // Allocated still holds exactly what our claim left iff nothing
    // reserved after us in this round: not a later reservation on the
    // core, not a closer, not a stale-round fetch_add. Rounds only
    // grow, so the word cannot come back to this value once moved —
    // except through another lease's own give-back, which leaves
    // nothing reserved above our span either. The plain load keeps a
    // doomed CAS off the shared line.
    MetadataBlock &m = meta[v.handle.slot];
    BTraceCounters &sc = shard(v.core);
    uint64_t top = v.claimWord + v.claimLen;
    if (m.allocated.load(std::memory_order_relaxed) != top)
        return false;
    sc.sharedRmws.fetch_add(1, std::memory_order_relaxed);
    if (!m.allocated.compare_exchange_strong(
            top, v.claimWord + v.used, std::memory_order_seq_cst,
            std::memory_order_relaxed))
        return false;

    // A claim that reached the block end made the block look exhausted
    // to every writer of the core, and one of them may have moved the
    // core to a fresh block meanwhile; then no writer comes back for
    // the tail. Pairs with the check after tryAdvance's install (both
    // sides seq_cst): at least one of the two sees the other and
    // closes the block.
    const RndPos claim = RndPos::unpack(v.claimWord);
    if (uint64_t(claim.pos) + v.claimLen >= cap) {
        const uint64_t pos = uint64_t(claim.rnd) * numActive +
                             v.handle.slot;
        const RatioPos now = RatioPos::unpack(
            coreLocal[v.core]->load(std::memory_order_seq_cst));
        if (now.pos != pos)
            closeRound(sc, v.handle.slot, claim.rnd,
                       BlockCloseReason::Graveyard);
    }
    return true;
}

bool
BTrace::closeRound(BTraceCounters &sc, std::size_t meta_idx, uint32_t rnd,
                   BlockCloseReason reason)
{
    MetadataBlock &m = meta[meta_idx];
    for (;;) {
        // seq_cst: the load after tryAdvance's install is one half of
        // the give-back handshake (giveBackTail).
        uint64_t aw = m.allocated.load(std::memory_order_seq_cst);
        const RndPos a = RndPos::unpack(aw);
        if (a.rnd != rnd || a.pos >= cap)
            return false;  // moved on, or nothing left to claim
        // Critical window: a concurrent reservation or a competing
        // closer can move Allocated between the load and this claim.
        BTRACE_TEST_YIELD(ClosePreClaim);
        sc.sharedRmws.fetch_add(1, std::memory_order_relaxed);
        if (!m.allocated.compare_exchange_weak(
                aw, RndPos::pack(rnd, uint32_t(cap)),
                std::memory_order_acq_rel, std::memory_order_relaxed))
            continue;
        // We claimed [a.pos, cap): fill with one dummy entry, confirm.
        const auto gap = static_cast<uint32_t>(cap - a.pos);
        const uint64_t pos = uint64_t(rnd) * numActive + meta_idx;
        writeDummy(blockData(physicalOf(pos)) + a.pos, gap);
        m.confirmed.fetch_add(gap, std::memory_order_acq_rel);
        sc.sharedRmws.fetch_add(1, std::memory_order_relaxed);
        sc.closes.fetch_add(1, std::memory_order_relaxed);
        sc.dummyBytes.fetch_add(gap, std::memory_order_relaxed);
        journalEmit(JournalEventKind::BlockClose, EventJournal::kNoCore,
                    pos, uint64_t(reason));
        return true;
    }
}

BTrace::AdvanceResult
BTrace::tryAdvance(uint16_t core, uint64_t local_word, double &cost)
{
    const auto max_skips = 2 * numActive;
    std::size_t skips_in_a_row = 0;
    BTraceCounters &sc = shard(core);

    for (;;) {
        const RatioPos g = RatioPos::unpack(global->fetch_add(
            1, std::memory_order_acq_rel));
        sc.sharedRmws.fetch_add(1, std::memory_order_relaxed);
        cost += costs.atomicShared;

        if (g.frozen)
            return AdvanceResult::WouldBlock;  // resize in flight

        // Critical window: the candidate is claimed but nothing is
        // locked yet; later candidates for the same metadata can race
        // ahead of this one.
        BTRACE_TEST_YIELD(AdvancePostClaim);

        const uint64_t cand = g.pos;
        const uint64_t n = numActive * g.ratio;
        const std::size_t meta_idx = cand % numActive;
        const uint32_t cand_rnd = checkedRound(cand, numActive);
        MetadataBlock &m = meta[meta_idx];

        uint64_t cw = m.confirmed.load(std::memory_order_acquire);
        RndPos conf = RndPos::unpack(cw);
        if (conf.rnd >= cand_rnd)
            continue;  // a later candidate already took this metadata

        if (conf.pos != cap) {
            // Previous round still incomplete: close the lagging block
            // (§3.2), then re-check; if a preempted writer still holds
            // unconfirmed space, sacrifice the candidate (§3.4).
            if (closeRound(sc, meta_idx, conf.rnd,
                           BlockCloseReason::Straggler))
                cost += costs.atomicShared * 2 + costs.copy(8);
            cw = m.confirmed.load(std::memory_order_acquire);
            conf = RndPos::unpack(cw);
            if (conf.rnd < cand_rnd && conf.pos != cap) {
                writeSkipMarker(blockData(cand % n), cand);
                sc.skips.fetch_add(1, std::memory_order_relaxed);
                cost += costs.copy(16);
                journalEmit(JournalEventKind::BlockSkip, core, cand,
                            conf.pos);
                if (++skips_in_a_row > max_skips)
                    return AdvanceResult::WouldBlock;
                continue;
            }
            if (conf.rnd >= cand_rnd)
                continue;
        }
        skips_in_a_row = 0;

        // Critical window: the block looked complete, but a later
        // candidate of the same metadata can lock it first — this CAS
        // must then fail, never double-lock.
        BTRACE_TEST_YIELD(AdvancePreLock);

        // Lock the block for our round (§4.2 step 4): Confirmed goes
        // from (old round, capacity) to (cand_rnd, 0).
        sc.sharedRmws.fetch_add(1, std::memory_order_relaxed);
        if (!m.confirmed.compare_exchange_strong(
                cw, RndPos::pack(cand_rnd, 0),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
            sc.lockRaces.fetch_add(1, std::memory_order_relaxed);
            continue;
        }

        // The block is locked for our round: journal the open here so
        // a graveyard close (lost install race below) still pairs an
        // open with its close in the timeline.
        journalEmit(JournalEventKind::BlockOpen, core, cand, 0);

        // Critical window: Confirmed is locked for the new round but
        // Allocated still shows the old one; reservations landing here
        // become stale and owe dummy obligations (§3.2).
        BTRACE_TEST_YIELD(AdvancePreReset);

        // Step 5: stamp the block header before any data write.
        uint8_t *blk = blockData(cand % n);
        writeBlockHeader(blk, cand);
        cost += costs.copy(16);

        // Step 6: reset Allocated for the new round. Stale fetch_adds
        // from other producers keep mutating the word, so loop.
        uint64_t aw = m.allocated.load(std::memory_order_acquire);
        sc.sharedRmws.fetch_add(1, std::memory_order_relaxed);
        while (!m.allocated.compare_exchange_weak(
                   aw, RndPos::pack(cand_rnd,
                                    EntryLayout::blockHeaderBytes),
                   std::memory_order_acq_rel, std::memory_order_acquire))
            sc.sharedRmws.fetch_add(1, std::memory_order_relaxed);

        // Step 7: confirm the header bytes.
        m.confirmed.fetch_add(EntryLayout::blockHeaderBytes,
                              std::memory_order_acq_rel);
        sc.sharedRmws.fetch_add(1, std::memory_order_relaxed);
        cost += costs.atomicLocal;

        // Critical window: the block is locked and initialized but not
        // yet installed; another thread of this core can install its
        // own block first, and ours must then be closed, not leaked.
        BTRACE_TEST_YIELD(AdvancePreInstall);

        // Step 8: hand the block to our core.
        uint64_t expected = local_word;
        sc.sharedRmws.fetch_add(1, std::memory_order_relaxed);
        if (!coreLocal[core]->compare_exchange_strong(
                expected, RatioPos::pack(g.ratio, false, cand),
                std::memory_order_seq_cst, std::memory_order_acquire)) {
            // Another thread on this core already installed a block;
            // release ours by closing it and use theirs (§4.2, end).
            sc.coreRaces.fetch_add(1, std::memory_order_relaxed);
            closeRound(sc, meta_idx, cand_rnd, BlockCloseReason::Graveyard);
            return AdvanceResult::LostRace;
        }

        // The block is ours: start every line past the header on its
        // way into this cache for write, so the entries that fill it
        // do not take their misses one at a time (nor the confirm
        // FAAs wait for them to drain).
        for (std::size_t off = cacheLineSize; off < cap;
             off += cacheLineSize)
            __builtin_prefetch(blk + off, 1, 3);

        // The block we leave looked exhausted, but a lease may have
        // handed its tail back since (giveBackTail, which pairs with
        // this seq_cst check); no writer of the core returns to it, so
        // close it. With nothing handed back this is one load of a
        // line we just touched.
        const uint64_t prev = RatioPos::unpack(local_word).pos;
        if (closeRound(sc, prev % numActive, checkedRound(prev, numActive),
                       BlockCloseReason::Graveyard))
            cost += costs.atomicShared * 2 + costs.copy(8);

        sc.advances.fetch_add(1, std::memory_order_relaxed);
        return AdvanceResult::Advanced;
    }
}

} // namespace btrace
