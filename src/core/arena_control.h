/**
 * @file
 * The arena *control region*: BTrace's shared rendezvous state, laid
 * out inside a shm/file arena so that multiple processes mapping the
 * same arena drive one tracer (DESIGN.md §11).
 *
 * For the process-private backend the tracer's coordination words
 * (global ratio_and_pos, core-local words, the A metadata blocks)
 * live on the heap, as they always have. For arena backends they live
 * here, between the flight region and the data area, so every
 * attachment resolves the *same* words — std::atomic<uint64_t> is
 * address-free on every platform this library targets, which is what
 * makes a mapped atomic valid across address spaces.
 *
 * The region also holds the two robustness tables that make
 * multi-process tracing crash-safe:
 *
 *  - the *producer attach registry* (ProducerSlot): one record per
 *    live attachment, keyed by the arena generation number the
 *    attachment drew when it mapped the arena. An attachment that
 *    detaches cleanly clears its slot; a slot whose pid is gone marks
 *    a crashed attachment.
 *  - the *lease-owner table* (LeaseOwnerRecord): one record per open
 *    lease, robust-futex-style. A granted lease stamps pid + attach
 *    generation + the attachment's lease sequence before first use; any
 *    attachment can later prove the owner dead (registry slot gone,
 *    or kill(pid, 0) == ESRCH) and reclaim the leased span through
 *    the graveyard-close path (sweeper.cc).
 *
 * None of the owner-table traffic touches the tracer's data-path
 * words, and none of it is charged to the sharedRmws counter: it is a
 * robustness plane, like the journal, not part of the §4.1 write
 * protocol. The private backend never executes any of it.
 */

#ifndef BTRACE_CORE_ARENA_CONTROL_H
#define BTRACE_CORE_ARENA_CONTROL_H

#include <atomic>
#include <cstdint>

#include "common/cacheline.h"
#include "core/metadata.h"

namespace btrace {

/**
 * One live attachment of the arena (a producer, a consumer daemon, or
 * the owner). attachGen doubles as the occupancy word: 0 = free slot,
 * otherwise the unique generation number the attachment drew from
 * ArenaHeader::generation when it mapped the arena.
 */
struct alignas(cacheLineSize) ProducerSlot
{
    std::atomic<uint64_t> attachGen{0};
    std::atomic<uint32_t> pid{0};
    /** Bit 0: owner (created the arena). Bit 1: consumer-only. */
    std::atomic<uint32_t> flags{0};

    static constexpr uint32_t kOwnerFlag = 1u << 0;
    static constexpr uint32_t kConsumerFlag = 1u << 1;
};

/**
 * Ownership stamp of one open lease. State machine:
 *
 *     Free -> Claimed -> Active -> Closing -> Free     (normal close)
 *                          \
 *                           -> Reclaiming -> Free      (sweeper, owner
 *                                                       proved dead)
 *
 * The producer claims a Free record with one CAS, fills the stamp
 * fields, and publishes Active with a release store. leaseClose runs,
 * in order: the LeasePreCloseConfirm yield point, the Active ->
 * Closing CAS, the unused tail's give-back CAS or dummy fill (a
 * give-back of a claim that reached the block end also re-checks the
 * core word and may close the block), the bulk Confirmed fetch_add,
 * and the release store to Free. So a sweeper never reclaims (and
 * never double-confirms, nor dummy-fills a handed-back tail of) a
 * span whose close has begun: it only ever claims records still in
 * Active. Death inside the Closing window — the give-back and the
 * confirm — leaves a record the sweeper frees without touching the
 * block (the block is sacrificed, exactly like a pre-existing
 * untracked death); see DESIGN.md §11 for the safety argument.
 */
struct alignas(cacheLineSize) LeaseOwnerRecord
{
    enum State : uint32_t
    {
        Free = 0,
        Claimed = 1,    //!< CAS won, stamp fields being written
        Active = 2,     //!< lease open; stamp fields valid
        Closing = 3,    //!< owner is returning its tail, confirming
        Reclaiming = 4, //!< a sweeper proved the owner dead
    };

    std::atomic<uint32_t> state{Free};
    std::atomic<uint32_t> pid{0};
    std::atomic<uint64_t> attachGen{0};
    /** The owning attachment's lease count; unique with attachGen. */
    std::atomic<uint64_t> leaseSeq{0};
    /** Metadata slot index and round the lease's span belongs to. */
    std::atomic<uint32_t> slot{0};
    std::atomic<uint32_t> round{0};
    /** Leased span inside the block: [spanStart, spanStart+spanLen). */
    std::atomic<uint32_t> spanStart{0};
    std::atomic<uint32_t> spanLen{0};
    /** Global position the span's block was opened for. */
    std::atomic<uint64_t> blockPos{0};
};

static_assert(sizeof(ProducerSlot) == cacheLineSize,
              "one attachment record per cache line");
static_assert(sizeof(LeaseOwnerRecord) == cacheLineSize,
              "one lease stamp per cache line");

/** First cache lines of the control region. */
struct alignas(cacheLineSize) ControlHeader
{
    static constexpr uint64_t kMagic = 0x314C525443544224ull; // "$BTCTRL1"
    /** v2 added the control page (runtime-tuning snapshots, §12). */
    static constexpr uint32_t kVersion = 2;

    uint64_t magic = 0;
    uint32_t version = 0;
    /** Geometry the region was sized for; attachments must match. */
    uint32_t cores = 0;
    uint64_t activeBlocks = 0;
    /**
     * 0 while the owner initializes the region, 1 (release) once the
     * tracer state is live. Attachments require 1: the data words are
     * only meaningful after the owner's initialization published.
     */
    std::atomic<uint32_t> ready{0};
    uint32_t reserved0 = 0;
    /**
     * Unused since lease records are stamped from a per-attachment
     * count; kept so the v2 layout does not change.
     */
    std::atomic<uint64_t> leaseSeq{0};
    /** Dead-producer sweeps completed (any attachment). */
    std::atomic<uint64_t> sweeps{0};
    /** Leases ever reclaimed from dead owners. */
    std::atomic<uint64_t> reclaimedLeases{0};
};

/** Fixed table sizes; generous for the session-daemon deployments. */
constexpr std::size_t kMaxAttachments = 64;
constexpr std::size_t kLeaseOwnerSlots = 256;

/**
 * One serialized ControlSnapshot in the arena's control page
 * (DESIGN.md §12): the wire form an out-of-process operator's
 * applyControl leaves for every live producer to poll. Fields mirror
 * ControlConfig, rates in 32.32 fixed point (control/snapshot.h);
 * category overrides use ~0ull for "inherit".
 *
 * seqlock discipline: the writer (who claimed this entry's version
 * via ControlPage::publishCount) bumps seq to odd, release-stores the
 * fields, then release-stores seq = 2 * version. A reader that sees
 * an even seq, copies, and re-reads the same seq has a torn-free
 * entry; anything else means a writer was mid-flight — retry or skip.
 */
struct ControlPageEntry
{
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> appliedNs{0};
    std::atomic<uint64_t> sampleRateFx{0};
    std::atomic<uint64_t> categoryRateFx[16]{};
    std::atomic<uint64_t> firstK{0};
    std::atomic<uint64_t> intervalNs{0};
    std::atomic<uint64_t> recordBudget{0};
    std::atomic<uint64_t> ringMinBlocks{0};
    std::atomic<uint64_t> ringMaxBlocks{0};
    /** Bit 0: journal enabled. Bit 1: watchdog enabled. */
    std::atomic<uint64_t> flags{0};

    static constexpr uint64_t kInheritRate = ~uint64_t(0);
    static constexpr uint64_t kJournalFlag = 1u << 0;
    static constexpr uint64_t kWatchdogFlag = 1u << 1;
};

/**
 * The control page: a publish counter plus a small history ring of
 * snapshot entries. Writers claim version = publishCount.fetch_add(1)
 * + 1 and fill entries[(version - 1) % kControlHistory]; concurrent
 * publishers from different processes therefore never share an entry
 * (a collision needs one writer to lag kControlHistory whole
 * publishes behind — such an entry fails its seqlock check and is
 * skipped). Readers poll publishCount with one relaxed load; nothing
 * here is ever touched by the per-event write path.
 */
constexpr std::size_t kControlHistory = 8;

struct alignas(cacheLineSize) ControlPage
{
    std::atomic<uint64_t> publishCount{0};
    ControlPageEntry entries[kControlHistory];
};

/**
 * Byte offsets of the control region's sections. All sections are
 * 128-byte aligned so MetadataBlock's alignas(128) holds inside any
 * page-aligned region base.
 */
struct ControlLayout
{
    std::size_t producersOff = 0;
    std::size_t ownersOff = 0;
    std::size_t globalOff = 0;
    std::size_t coreLocalOff = 0;
    std::size_t metaOff = 0;
    std::size_t controlPageOff = 0;
    std::size_t totalBytes = 0;

    static constexpr ControlLayout
    compute(unsigned cores, std::size_t active_blocks)
    {
        constexpr std::size_t align = 128;
        ControlLayout l;
        std::size_t off = alignUp(sizeof(ControlHeader), align);
        l.producersOff = off;
        off = alignUp(off + kMaxAttachments * sizeof(ProducerSlot),
                      align);
        l.ownersOff = off;
        off = alignUp(off + kLeaseOwnerSlots * sizeof(LeaseOwnerRecord),
                      align);
        l.globalOff = off;
        off = alignUp(
            off + sizeof(CacheAligned<std::atomic<uint64_t>>), align);
        l.coreLocalOff = off;
        off = alignUp(
            off + cores * sizeof(CacheAligned<std::atomic<uint64_t>>),
            align);
        l.metaOff = off;
        off = alignUp(off + active_blocks * sizeof(MetadataBlock),
                      align);
        l.controlPageOff = off;
        off += sizeof(ControlPage);
        l.totalBytes = off;
        return l;
    }
};

/** Control-region bytes a tracer of this geometry needs. */
constexpr std::size_t
ctrlBytesFor(unsigned cores, std::size_t active_blocks)
{
    return ControlLayout::compute(cores, active_blocks).totalBytes;
}

/**
 * Typed pointers into one attachment's mapping of the control region
 * (or into the private backend's heap blob — same layout, so the
 * tracer binds its state pointers uniformly).
 */
struct ControlView
{
    ControlHeader *hdr = nullptr;
    ProducerSlot *producers = nullptr;
    LeaseOwnerRecord *owners = nullptr;
    CacheAligned<std::atomic<uint64_t>> *global = nullptr;
    CacheAligned<std::atomic<uint64_t>> *coreLocal = nullptr;
    MetadataBlock *meta = nullptr;
    ControlPage *page = nullptr;

    static ControlView
    bind(uint8_t *base, unsigned cores, std::size_t active_blocks)
    {
        const ControlLayout l =
            ControlLayout::compute(cores, active_blocks);
        ControlView v;
        v.hdr = reinterpret_cast<ControlHeader *>(base);
        v.producers =
            reinterpret_cast<ProducerSlot *>(base + l.producersOff);
        v.owners =
            reinterpret_cast<LeaseOwnerRecord *>(base + l.ownersOff);
        v.global =
            reinterpret_cast<CacheAligned<std::atomic<uint64_t>> *>(
                base + l.globalOff);
        v.coreLocal =
            reinterpret_cast<CacheAligned<std::atomic<uint64_t>> *>(
                base + l.coreLocalOff);
        v.meta = reinterpret_cast<MetadataBlock *>(base + l.metaOff);
        v.page =
            reinterpret_cast<ControlPage *>(base + l.controlPageOff);
        return v;
    }
};

/** Outcome of one dead-owner sweep (BTrace::sweepDeadOwners). */
struct SweepReport
{
    /** Active records whose owner was proved dead and reclaimed. */
    uint64_t reclaimedLeases = 0;
    /** Bytes confirmed on behalf of dead owners. */
    uint64_t reclaimedBytes = 0;
    /** Crashed attachments whose registry slot was cleared. */
    uint64_t clearedAttachments = 0;
    /** Dead records caught mid-Closing: freed, block sacrificed. */
    uint64_t ambiguousCloses = 0;
    /** Records whose round had already completed: freed untouched. */
    uint64_t staleRecords = 0;
};

} // namespace btrace

#endif // BTRACE_CORE_ARENA_CONTROL_H
