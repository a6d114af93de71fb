/**
 * @file
 * Multi-process plumbing of BTrace (DESIGN.md §11): attaching to an
 * existing arena, the producer attach registry, the lease-owner table,
 * and the dead-owner sweeper that reclaims leases from crashed
 * producers.
 *
 * Everything here is the robustness plane of the tracer: none of it
 * runs on the private backend and none of it touches the §4.1 write
 * protocol's shared words outside the reclamation path — the
 * sharedRmws counter never moves on behalf of this file's
 * registry/table traffic.
 */

#include "core/btrace.h"

#include <cerrno>
#include <csignal>

#include <unistd.h>

namespace btrace {

namespace {

/** Liveness probe: does @p pid name an existing process? */
bool
processExists(uint32_t pid)
{
    if (pid == 0)
        return false;
    // kill(pid, 0) delivers nothing; EPERM still proves existence.
    return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

} // namespace

BTrace::BTrace(AttachTag, std::unique_ptr<StorageBackend> backend,
               const BTraceConfig &derived)
    : cfg(derived), cap(derived.blockSize),
      numActive(derived.activeBlocks),
      maxN(derived.effectiveMaxBlocks()), span(std::move(backend))
{
    pid_ = static_cast<uint32_t>(::getpid());
    owner_ = false;
    ctrs = std::make_unique<BTraceCounters[]>(cfg.cores + 1);
    bindControl();
    BTRACE_ASSERT(shared, "attach constructor needs a control region");
    attachGen = span.backend()->attachGeneration();

    // The RatioLog is per-process: seed it with the arena's current
    // ratio so position -> physical resolution works for everything
    // this attachment hands out or reads from now on. Positions minted
    // under a *different* pre-attach ratio (the owner resized before
    // we got here) would mis-resolve, which is why resize requires a
    // sole attachment and why attachments of a freshly resized arena
    // should only trust positions >= the head at attach time.
    const RatioPos g =
        RatioPos::unpack(global->load(std::memory_order_acquire));
    ratioLog.stage(0, g.ratio);
    ratioLog.publish();

    span.commit(0, numActive * g.ratio * cap);

    // Adopt the owner's published control version (or defaults when
    // the page predates any publish); pollControl() converges later.
    plane = std::make_unique<ControlPlane>(
        *this, ControlGeometry{numActive, maxN}, ctrl.page,
        /*owner_init=*/false, cfg.control);
}

Expected<std::unique_ptr<BTrace>>
BTrace::attachArena(std::unique_ptr<StorageBackend> backend)
{
    if (backend == nullptr)
        return errInvalidArgument("attachArena: null storage backend");
    const ArenaHeader *h = backend->header();
    if (h == nullptr)
        return errUnsupported(
            "attachArena: backend has no arena header (private "
            "memory cannot be shared)");
    uint8_t *ctrl_base = backend->ctrlRegion();
    if (ctrl_base == nullptr)
        return errIncompatible(
            "attachArena: arena has no control region (created "
            "without a tracer, or by an older version)");

    const auto *chdr = reinterpret_cast<ControlHeader *>(ctrl_base);
    if (chdr->magic == 0)
        // All-zero magic is what a racing attacher sees between the
        // owner's ftruncate and its header stamp: still initializing,
        // not corrupt — report Busy so callers know to retry.
        return errBusy(
            "attachArena: control region still initializing");
    if (chdr->magic != ControlHeader::kMagic)
        return errCorruption(
            "attachArena: bad control-region magic");
    if (chdr->version != ControlHeader::kVersion)
        return errIncompatible(
            "attachArena: unsupported control-region version");
    if (chdr->ready.load(std::memory_order_acquire) != 1)
        return errBusy(
            "attachArena: arena owner has not finished initializing "
            "(or died mid-create)");

    const uint64_t block = h->blockSize.load(std::memory_order_acquire);
    const uint64_t active =
        h->activeBlocks.load(std::memory_order_acquire);
    const uint64_t num = h->numBlocks.load(std::memory_order_acquire);
    if (block == 0 || active == 0 || num == 0)
        return errCorruption(
            "attachArena: arena header has zero geometry");
    if (chdr->activeBlocks != active || chdr->cores == 0)
        return errCorruption(
            "attachArena: control region disagrees with the arena "
            "header about the geometry");
    if (ctrlBytesFor(chdr->cores, active) > h->ctrlBytes)
        return errCorruption(
            "attachArena: control region smaller than its geometry "
            "requires");
    if (h->dataBytes < num * block || num % active != 0)
        return errCorruption(
            "attachArena: data area inconsistent with the geometry");

    BTraceConfig cfg;
    cfg.storage = backend->kind();
    cfg.blockSize = static_cast<std::size_t>(block);
    cfg.activeBlocks = static_cast<std::size_t>(active);
    cfg.numBlocks = static_cast<std::size_t>(num);
    // The resize ceiling is whatever the creator reserved: the whole
    // data area. (Attachments cannot resize, but blockData() range
    // checks against this.)
    cfg.maxBlocks = static_cast<std::size_t>(
        alignDown(h->dataBytes / block, active));
    cfg.cores = chdr->cores;

    std::unique_ptr<BTrace> bt(
        new BTrace(AttachTag{}, std::move(backend), cfg));
    if (!bt->registerAttachment(/*is_owner=*/false))
        return errBusy("attachArena: attach registry full");
    return Expected<std::unique_ptr<BTrace>>(std::move(bt));
}

bool
BTrace::registerAttachment(bool is_owner)
{
    BTRACE_DASSERT(shared && attachGen != 0,
                   "registration needs a shared arena generation");
    for (std::size_t i = 0; i < kMaxAttachments; ++i) {
        ProducerSlot &s = ctrl.producers[i];
        uint64_t expect = 0;
        if (!s.attachGen.compare_exchange_strong(
                expect, attachGen, std::memory_order_acq_rel,
                std::memory_order_relaxed))
            continue;
        s.pid.store(pid_, std::memory_order_relaxed);
        s.flags.store(is_owner ? ProducerSlot::kOwnerFlag : 0u,
                      std::memory_order_release);
        producerSlotIdx = i;
        return true;
    }
    return false;
}

void
BTrace::deregisterAttachment()
{
    // Clean detach: leases were closed (Lease's destructor runs before
    // the tracer's), so no owner record names this generation anymore;
    // dropping the slot marks any record that still does as dead.
    ProducerSlot &s = ctrl.producers[producerSlotIdx];
    s.pid.store(0, std::memory_order_relaxed);
    s.flags.store(0, std::memory_order_relaxed);
    s.attachGen.store(0, std::memory_order_release);
}

bool
BTrace::attachmentAlive(uint64_t gen) const
{
    for (std::size_t i = 0; i < kMaxAttachments; ++i) {
        const ProducerSlot &s = ctrl.producers[i];
        if (s.attachGen.load(std::memory_order_acquire) != gen)
            continue;
        return processExists(s.pid.load(std::memory_order_relaxed));
    }
    // No registry slot: the attachment detached cleanly (closing its
    // leases first) or a sweep already cleared its crashed slot.
    return false;
}

uint32_t
BTrace::registerLeaseOwner(uint32_t slot, uint32_t rnd,
                           uint32_t span_start, uint32_t span_len,
                           uint64_t block_pos, uint64_t seq)
{
    // Per-thread probe start: a thread re-claims the record its last
    // lease freed, a line still in its own cache; a record another
    // thread holds moves the probe on, so concurrent producers spread
    // over the table instead of contending on record 0.
    static thread_local uint32_t probe_hint = 0;
    for (std::size_t p = 0; p < kLeaseOwnerSlots; ++p) {
        const auto i = static_cast<uint32_t>(
            (probe_hint + p) % kLeaseOwnerSlots);
        LeaseOwnerRecord &r = ctrl.owners[i];
        uint32_t expect = LeaseOwnerRecord::Free;
        if (!r.state.compare_exchange_strong(
                expect, LeaseOwnerRecord::Claimed,
                std::memory_order_acq_rel, std::memory_order_relaxed))
            continue;
        r.pid.store(pid_, std::memory_order_relaxed);
        r.attachGen.store(attachGen, std::memory_order_relaxed);
        // Unique together with attachGen; drawn from the lease core's
        // own count (BTrace::lease), never from a line shared across
        // cores or processes.
        r.leaseSeq.store(seq, std::memory_order_relaxed);
        r.slot.store(slot, std::memory_order_relaxed);
        r.round.store(rnd, std::memory_order_relaxed);
        r.spanStart.store(span_start, std::memory_order_relaxed);
        r.spanLen.store(span_len, std::memory_order_relaxed);
        r.blockPos.store(block_pos, std::memory_order_relaxed);
        r.state.store(LeaseOwnerRecord::Active,
                      std::memory_order_release);
        probe_hint = i;
        return i + 1;
    }
    // Table full: the lease proceeds untracked — exactly the
    // pre-owner-table behavior (a death loses the block until the
    // round is sacrificed, §3.4), never a denial of service.
    return 0;
}

SweepReport
BTrace::sweepDeadOwners()
{
    SweepReport rep;
    if (!shared)
        return rep;

    // Pass 1: clear registry slots of crashed attachments, so pass
    // 2's liveness checks (and future attachers scanning for a free
    // slot) see their absence. CAS on attachGen serializes competing
    // sweepers; only the winner counts the clear.
    for (std::size_t i = 0; i < kMaxAttachments; ++i) {
        ProducerSlot &s = ctrl.producers[i];
        uint64_t gen = s.attachGen.load(std::memory_order_acquire);
        if (gen == 0 || gen == attachGen)
            continue;
        if (processExists(s.pid.load(std::memory_order_relaxed)))
            continue;
        if (s.attachGen.compare_exchange_strong(
                gen, 0, std::memory_order_acq_rel,
                std::memory_order_relaxed)) {
            s.pid.store(0, std::memory_order_relaxed);
            s.flags.store(0, std::memory_order_relaxed);
            ++rep.clearedAttachments;
        }
    }

    // Pass 2: the owner table. A record is reclaimable when the
    // attachment that stamped it is provably gone.
    for (std::size_t i = 0; i < kLeaseOwnerSlots; ++i) {
        LeaseOwnerRecord &r = ctrl.owners[i];
        const uint32_t st = r.state.load(std::memory_order_acquire);
        if (st != LeaseOwnerRecord::Active &&
            st != LeaseOwnerRecord::Closing)
            continue;
        const uint64_t gen =
            r.attachGen.load(std::memory_order_relaxed);
        if (gen == attachGen || attachmentAlive(gen))
            continue;

        if (st == LeaseOwnerRecord::Closing) {
            // Ambiguous window: the owner died between its Active ->
            // Closing CAS and freeing the record, so its tail may
            // already be handed back to the block (and reserved by
            // another writer) or dummy-filled, and the bulk confirm
            // may or may not have landed. Never touch the block —
            // just free the record; if the confirm never landed the
            // block stays incomplete and is sacrificed by §3.4
            // skipping, the same cost as any untracked death.
            uint32_t expect = LeaseOwnerRecord::Closing;
            if (r.state.compare_exchange_strong(
                    expect, LeaseOwnerRecord::Free,
                    std::memory_order_acq_rel,
                    std::memory_order_relaxed))
                ++rep.ambiguousCloses;
            continue;
        }

        // Claim the record. The CAS serializes against a racing
        // leaseClose (which moves Active -> Closing) and against other
        // sweepers: after it lands, the span's bulk confirm can never
        // be published by anyone but us.
        uint32_t expect = LeaseOwnerRecord::Active;
        if (!r.state.compare_exchange_strong(
                expect, LeaseOwnerRecord::Reclaiming,
                std::memory_order_acq_rel, std::memory_order_relaxed))
            continue;

        const uint32_t slot = r.slot.load(std::memory_order_relaxed);
        const uint32_t rnd = r.round.load(std::memory_order_relaxed);
        const uint32_t span_start =
            r.spanStart.load(std::memory_order_relaxed);
        const uint32_t span_len =
            r.spanLen.load(std::memory_order_relaxed);
        const uint64_t block_pos =
            r.blockPos.load(std::memory_order_relaxed);

        // An Active record's span is unconfirmed, so its block cannot
        // have completed its round: Confirmed must still be in the
        // record's round. Anything else means the record is stale
        // (defensive: never dummy-fill another round's block).
        const RndPos conf = meta[slot].loadConfirmed();
        if (conf.rnd != rnd || span_start + span_len > cap) {
            ++rep.staleRecords;
            r.state.store(LeaseOwnerRecord::Free,
                          std::memory_order_release);
            continue;
        }

        // Reclaim: dummy-fill the dead owner's span, confirm it on
        // its behalf (restoring exactly the confirmation deficit the
        // death left), and close the block through the graveyard path
        // so the active set recovers.
        writeDummy(blockData(physicalOf(block_pos)) + span_start,
                   span_len);
        meta[slot].confirmed.fetch_add(span_len,
                                       std::memory_order_acq_rel);
        closeRound(spareShard(), slot, rnd, BlockCloseReason::Graveyard);
        r.state.store(LeaseOwnerRecord::Free,
                      std::memory_order_release);

        // The dead producer's leasedOutstanding died with its
        // process-local counters; ours never counted this lease, so
        // only the dummy tally moves here.
        spareShard().dummyBytes.fetch_add(span_len,
                                          std::memory_order_relaxed);
        ++rep.reclaimedLeases;
        rep.reclaimedBytes += span_len;
        ctrl.hdr->reclaimedLeases.fetch_add(1,
                                            std::memory_order_relaxed);
        journalEmit(JournalEventKind::LeaseRevoke,
                    EventJournal::kNoCore, block_pos, span_len);
    }

    ctrl.hdr->sweeps.fetch_add(1, std::memory_order_relaxed);
    return rep;
}

} // namespace btrace
