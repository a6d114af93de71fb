/**
 * @file
 * BTrace: the block-based mobile tracer (the paper's contribution).
 *
 * One global buffer is statically partitioned into N equally sized
 * data blocks; A metadata blocks (the *active blocks*, §3.2) are
 * mapped onto them with ratio N/A (§3.3). Each core owns one data
 * block at a time (core-local ratio_and_pos); producers on that core
 * reserve space with a single fetch_add on the block's Allocated word
 * and publish with a fetch_add on Confirmed (out-of-order confirmation,
 * §3.4/§4.1). When a block fills, the producer advances via a
 * fetch_add on the global ratio_and_pos, closing the lagging block of
 * the target metadata and skipping blocks held by preempted writers
 * (§4.2). Consumers read speculatively and re-validate (§4.3).
 * Resizing swings the Ratio after an implicit-reclamation quiesce
 * (§4.4).
 *
 * Position arithmetic: global position p (monotonic) maps to metadata
 * index p mod A, metadata round p / A, and data block p mod N, where
 * N = A * Ratio at the time p was handed out (RatioLog).
 */

#ifndef BTRACE_CORE_BTRACE_H
#define BTRACE_CORE_BTRACE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/cacheline.h"
#include "common/status.h"
#include "common/virtual_memory.h"
#include "control/control_plane.h"
#include "core/arena_control.h"
#include "core/config.h"
#include "core/epoch.h"
#include "core/metadata.h"
#include "core/ratio_log.h"
#include "obs/journal.h"
#include "trace/tracer.h"

namespace btrace {

/**
 * Internal event counters (all relaxed). Live atomics are private to
 * the tracer (and white-box tests); everyone else reads a coherent
 * value-type Snapshot via BTrace::countersSnapshot() — handing out the
 * atomic struct invites torn cross-field reads (field A before an
 * update, field B after it) that look like accounting violations.
 */
struct BTraceCounters
{
    std::atomic<uint64_t> fastAllocs{0};     //!< fast-path successes
    std::atomic<uint64_t> boundaryFills{0};  //!< §4.1 Fig 8c tail dummies
    std::atomic<uint64_t> staleAllocs{0};    //!< FAA landed in newer round
    std::atomic<uint64_t> advances{0};       //!< block advancements
    std::atomic<uint64_t> skips{0};          //!< §3.4 skipped blocks
    std::atomic<uint64_t> closes{0};         //!< §3.2 closed lagging blocks
    std::atomic<uint64_t> lockRaces{0};      //!< lost Confirmed lock CAS
    std::atomic<uint64_t> coreRaces{0};      //!< lost core-local install
    std::atomic<uint64_t> wouldBlock{0};     //!< Retry returned to caller
    std::atomic<uint64_t> dummyBytes{0};     //!< space lost to dummies
    std::atomic<uint64_t> resizes{0};
    /**
     * RMW instructions issued on shared words (metadata Allocated /
     * Confirmed, global and core-local ratio_and_pos) by the write
     * path. The single-entry path costs 2 per event (reserve FAA +
     * confirm FAA); a lease costs 2 per batch. Tests assert the
     * amortization on this counter.
     */
    std::atomic<uint64_t> sharedRmws{0};
    std::atomic<uint64_t> leases{0};         //!< batched leases granted
    std::atomic<uint64_t> leaseEntries{0};   //!< entries served from leases
    /** Bytes leased but not yet published by a lease close. */
    std::atomic<uint64_t> leasedOutstanding{0};

    /**
     * Value-type copy of the counters. Fields mirror the atomics
     * one-for-one; all loads are relaxed (each field individually
     * up-to-date, the set not a linearizable cut — fine for tests,
     * reports, and monitoring; quiesce first for exact accounting).
     */
    struct Snapshot
    {
        uint64_t fastAllocs = 0;
        uint64_t boundaryFills = 0;
        uint64_t staleAllocs = 0;
        uint64_t advances = 0;
        uint64_t skips = 0;
        uint64_t closes = 0;
        uint64_t lockRaces = 0;
        uint64_t coreRaces = 0;
        uint64_t wouldBlock = 0;
        uint64_t dummyBytes = 0;
        uint64_t resizes = 0;
        uint64_t sharedRmws = 0;
        uint64_t leases = 0;
        uint64_t leaseEntries = 0;
        uint64_t leasedOutstanding = 0;

        /**
         * Interval diff: this minus @p base, field by field. Counters
         * are monotonic so diffs of ordered snapshots are exact;
         * leasedOutstanding is a level, its diff is the (wrapping)
         * signed change over the interval.
         */
        Snapshot operator-(const Snapshot &base) const;
    };

    Snapshot snapshot() const;
};

/**
 * Occupancy of the A metadata slots at one instant (§3.2 terminology):
 * complete — current round fully confirmed; open — partially filled
 * with every reservation confirmed (a closer could shut it now);
 * incomplete — holding unconfirmed reservations (an in-flight writer,
 * an open lease, or a straggler). complete+open+incomplete == A.
 */
struct ActiveBlockOccupancy
{
    uint64_t complete = 0;
    uint64_t open = 0;
    uint64_t incomplete = 0;
};

/**
 * Outcome of one speculative block read (§4.3). The reader itself only
 * classifies; what a non-Data outcome *means* depends on the caller:
 * dump() charges Abandoned to Dump::abandonedBlocks, while dumpSince()
 * charges any vanished block at a position the producers have lapped
 * to Dump::overwrittenPositions — that data is permanently gone, not
 * merely unreadable right now.
 */
enum class BlockReadStatus
{
    Data,        //!< entries appended to the dump
    Empty,       //!< no valid header: never used, or decommitted
    Skipped,     //!< skip marker for a window position (§3.4)
    Stale,       //!< header names a position outside the window
    Unreadable,  //!< unconfirmed in-flight writes or corrupt state
    Abandoned,   //!< concurrent overwrite detected after the copy
};

/**
 * Raw state of one metadata slot at one instant (flight-recorder
 * bundles, DESIGN.md §9). Same monitoring-grade caveat as occupancy():
 * each word is read atomically, the pair is not a linearizable cut.
 */
struct MetaSlotState
{
    uint32_t allocRnd = 0;  //!< Allocated round
    uint32_t allocPos = 0;  //!< Allocated byte position
    uint32_t confRnd = 0;   //!< Confirmed round
    uint32_t confPos = 0;   //!< Confirmed byte position
};

/** Implementation of the Tracer interface per §3-§4 of the paper. */
class BTrace : public Tracer
{
  public:
    /**
     * Create a tracer that owns its buffer. Arena-backed storage
     * (shm / file) places the coordination state in the arena's
     * control region, making the instance multi-process capable;
     * other processes join via attachArena(). Internal API — prefer
     * btrace::Session::create (session.h), which reports invalid
     * configurations as a Status instead of dying.
     */
    explicit BTrace(const BTraceConfig &config,
                    const CostModel &model = CostModel::def());

    /**
     * Attach to the tracer living inside an existing arena (obtained
     * via tryAttachShmArena / tryAttachFileArena): bind the shared
     * control region, register this attachment in the producer
     * registry, and derive the geometry from the arena header. The
     * attachment can produce, consume, and sweep; it must not resize
     * (the RatioLog is per-process, see DESIGN.md §11). Internal API —
     * prefer btrace::Session::attachFile / attachFd.
     */
    static Expected<std::unique_ptr<BTrace>>
    attachArena(std::unique_ptr<StorageBackend> backend,
                const CostModel &model = CostModel::def());

    /**
     * Arena-backed instances stamp the header on the way out: current
     * block count, clean-shutdown mark, storage sync — so a reopened
     * file ring can tell a clean detach from a crash.
     */
    ~BTrace() override;

    std::string name() const override { return "BTrace"; }
    std::size_t capacityBytes() const override;

    WriteTicket allocate(uint16_t core, uint32_t thread,
                         uint32_t payload_len) override;
    void confirm(WriteTicket &ticket) override;
    void abandonWrite(WriteTicket &ticket) override;

    /**
     * Batched write claim (§4.1, amortized): one Allocated fetch_add
     * reserves a span sized for @p n entries of @p payload_hint
     * bytes; Lease::allocate serves from it with plain bump-pointer
     * arithmetic and Lease::close publishes everything with one
     * Confirmed fetch_add. An open lease keeps its block incomplete,
     * so closing (§3.2) and skipping (§3.4) bound the active set the
     * same way they do for a preempted single-entry writer; the span
     * granted never exceeds what is left of the current block.
     */
    Lease lease(uint16_t core, uint32_t thread, uint32_t payload_hint,
                uint32_t n) override;

    /**
     * Non-destructive snapshot: dumpFrom with a fresh cursor in
     * snapshot-peek mode (DumpOptions::readOpen) — every readable
     * block of the retention window, open blocks included, nothing
     * closed, no loss accounting.
     */
    Dump dump() override;

    /**
     * Incremental consumer read (§4.3, daemon-collector mode): return
     * the blocks completed at positions >= @p cursor, advancing
     * @p cursor past everything read. A cursor that fell behind the
     * overwrite frontier snaps forward to the last-N window and the
     * skipped span is charged to Dump::overwrittenPositions (data the
     * producers already overwrote).
     *
     * With DumpOptions::closeActive, non-filled blocks whose writes
     * are all confirmed are read too and then *closed* by filling
     * their remaining space with dummy data, exactly as the paper's
     * consumer does — producers move on to fresh blocks. A block with
     * unconfirmed in-flight writes (or still being initialized) ends
     * the pass there, as an open block does for a streaming read: a
     * later call resumes at it once the writes publish. The wait is
     * bounded: a block more than 2 x activeBlocks positions behind
     * the newest, or any block on a DumpOptions::lastPass, is walked
     * past instead and charged to Dump::unreadableBlocks unless it
     * completed meanwhile. With DumpOptions::readOpen, open blocks
     * are instead read in place and the walk continues past them
     * (snapshot semantics).
     */
    Dump dumpFrom(DumpCursor &cursor,
                  const DumpOptions &opts = {}) override;

    /** Legacy spelling of dumpFrom; use the DumpCursor overload. */
    [[deprecated("use dumpFrom(DumpCursor&, DumpOptions)")]]
    Dump dumpSince(uint64_t &cursor, bool close_active = false);

    /**
     * Resize the buffer to @p new_num_blocks data blocks (a multiple
     * of A, within [A, maxBlocks]). Blocking maintenance operation:
     * quiesces all active blocks, swings the ratio, and for shrinks
     * waits for consumer epochs before releasing physical memory
     * (§4.4). Producers keep running; only in-flight advancement backs
     * off briefly (see DESIGN.md §3). Multi-process arenas: only
     * allowed while this is the sole live attachment — the RatioLog
     * that maps positions to physical blocks is per-process, so other
     * attachments would mis-resolve post-resize positions.
     */
    void resize(std::size_t new_num_blocks);

    /**
     * Non-fatal resize for runtime actuation (the governor): the
     * preconditions resize() asserts come back as a Status instead —
     * InvalidArgument for a target that is not a multiple of A inside
     * [A, maxBlocks], Busy for a shared arena with other live
     * attachments (the per-process RatioLog rule). On Ok the resize
     * has completed.
     */
    Status tryResize(std::size_t new_num_blocks);

    /**
     * Apply a new control configuration (DESIGN.md §12): validated,
     * versioned, swapped in atomically for this attachment, and — on
     * a shared arena — published to the arena control page so every
     * other attachment converges on its next pollControl().
     */
    Status applyControl(const ControlConfig &next)
    {
        return plane->apply(next);
    }

    /**
     * Adopt a control version another attachment published to the
     * arena page, if any. Two loads, no lock, when nothing changed;
     * call at poll cadence (lease renewal, drain ticks), never per
     * event.
     */
    bool pollControl() { return plane->poll(); }

    /** The attachment's control plane (history, tallies, metrics). */
    ControlPlane &controlPlane() { return *plane; }
    const ControlPlane &controlPlane() const { return *plane; }

    /**
     * Scan the arena's lease-owner table and attach registry for dead
     * owners (registry slot gone, or kill(pid, 0) says the process no
     * longer exists) and reclaim their leased spans: dummy-fill the
     * span, confirm it on the dead owner's behalf, and close the
     * block through the graveyard path so the active set recovers
     * (DESIGN.md §11). Safe from any attachment, concurrently with
     * producers; serialized per record by a CAS. No-op (all-zero
     * report) on a private-backend tracer.
     */
    SweepReport sweepDeadOwners();

    /** True when the coordination state lives in a shared arena. */
    bool multiprocess() const { return shared; }

    /** This attachment's unique arena generation number (0=private). */
    uint64_t attachGeneration() const { return attachGen; }

    /** True for the attachment that created and initialized the arena. */
    bool arenaOwner() const { return owner_; }

    /** Current number of data blocks (N). */
    std::size_t numBlocks() const;

    const BTraceConfig &config() const { return cfg; }

    /** Coherent value-type copy of the event counters. */
    BTraceCounters::Snapshot countersSnapshot() const
    {
        return ctrs.snapshot();
    }

    /** Global advancement position (candidates handed out so far). */
    uint64_t headPosition() const;

    /** Classify every metadata slot (observability plane; relaxed). */
    ActiveBlockOccupancy occupancy() const;

    /** Raw per-slot metadata words (flight recorder; relaxed). */
    std::vector<MetaSlotState> slotStates() const;

    /**
     * Allocation-free variant for async-safe captures: fill at most
     * @p max entries of @p out and return the count written.
     */
    std::size_t slotStatesInto(MetaSlotState *out,
                               std::size_t max) const noexcept;

    /** Storage backend of the data area (never null). */
    StorageBackend *storageBackend() const { return span.backend(); }

    /** Arena header, or nullptr on the private backend. */
    ArenaHeader *arenaHeader() const
    {
        return span.backend()->header();
    }

    /**
     * Copy a rendered flight bundle into the arena's flight region
     * (truncating to its capacity) and publish its length, so the
     * bundle survives process death inside a file-backed ring. False
     * when the backend has no arena (private memory). Async-safe:
     * memcpy, two atomic stores, and the backend sync — no locks, no
     * allocation.
     */
    bool writeFlightToArena(const char *bundle,
                            std::size_t len) noexcept;

    /**
     * Attach (nullptr detaches) a lifecycle event journal (DESIGN.md
     * §9). The journal receives block open/close/skip, lease
     * grant/revoke/abandon, resize and reclaim transitions. The hot
     * path pays one relaxed pointer load per transition site and the
     * journal adds zero RMWs on the tracer's shared words — the
     * sharedRmws counter is identical with and without a journal
     * (asserted by test, same bar as the TracerObserver).
     */
    void attachJournal(EventJournal *journal)
    {
        jnl.store(journal, std::memory_order_release);
    }

    EventJournal *attachedJournal() const
    {
        return jnl.load(std::memory_order_acquire);
    }

    /** Resident physical memory of the data area, in bytes. */
    std::size_t residentBytes() const { return span.residentBytes(); }

  protected:
    void leaseClose(Lease &l) override;

  private:
    friend class BTraceInspector;  //!< white-box test access
    friend class BTraceAuditor;    //!< post-quiesce invariant checker

    /**
     * Live atomic counters. Test-only: white-box friends may read the
     * atomics directly; every other consumer goes through
     * countersSnapshot() to avoid torn cross-field reads.
     */
    const BTraceCounters &counters() const { return ctrs; }

    enum class AdvanceResult { Advanced, LostRace, WouldBlock };

    /** Tag selecting the attach-to-existing-arena constructor. */
    struct AttachTag
    {
    };

    /**
     * Attach-mode constructor (attachArena only): adopt @p backend,
     * bind the already-initialized control region, and derive the
     * geometry from the arena header. Registration in the producer
     * registry is NOT done here — attachArena() calls
     * registerAttachment() afterwards so a full table surfaces as a
     * Status instead of a fatal.
     */
    BTrace(AttachTag, std::unique_ptr<StorageBackend> backend,
           const BTraceConfig &derived, const CostModel &model);

    /** Build the storage span described by @p config. */
    static VirtualSpan makeSpan(const BTraceConfig &config);

    /**
     * Point meta/global/coreLocal at the control region (arena
     * backends) or at a private heap blob of the same layout.
     */
    void bindControl();

    /** Claim a ProducerSlot; false when the registry is full. */
    bool registerAttachment(bool is_owner);

    /** Clear this attachment's ProducerSlot (clean detach). */
    void deregisterAttachment();

    /**
     * Liveness of the attachment that drew @p gen: true iff its
     * registry slot is present and its pid still exists. A missing
     * slot means a clean detach (leases were closed first), so its
     * leases — if any record still names it — are reclaimable.
     */
    bool attachmentAlive(uint64_t gen) const;

    /**
     * Stamp an owner record for a just-granted lease span. Returns
     * index+1 (stored in TicketHandle::aux; 0 = untracked, table
     * full — the lease proceeds exactly like a pre-owner-table one).
     */
    uint32_t registerLeaseOwner(uint32_t slot, uint32_t rnd,
                                uint32_t span_start, uint32_t span_len,
                                uint64_t block_pos, uint64_t seq);

    /**
     * Offset-based address of physical block @p phys — the form that
     * is meaningful in every attachment of a shared arena and in an
     * offline ArenaView, unlike a raw pointer (DESIGN.md §10).
     */
    BlockRef blockRefOf(uint64_t phys) const
    {
        return BlockRef{phys * cap};
    }

    /** Data area of physical block @p phys in this attachment. */
    uint8_t *blockData(uint64_t phys);
    const uint8_t *blockData(uint64_t phys) const;

    /** Physical block of global position @p pos (via the RatioLog). */
    uint64_t physicalOf(uint64_t pos) const;

    /**
     * Hand a closing lease's unused tail back to its block: one CAS of
     * Allocated from what the lease's claim left back to the end of
     * the served bytes, issued only while nothing has reserved after
     * the lease. False when the tail must be dummy-filled instead
     * (DESIGN.md §7).
     */
    bool giveBackTail(const LeaseView &v, double &cost);

    /**
     * Close the block of round @p rnd on metadata @p meta_idx: claim
     * the remaining space, fill it with a dummy entry, and confirm it
     * (§3.2). No-op if the metadata has moved past @p rnd or the block
     * is already fully allocated. @p reason is journaled with the
     * BlockClose event when the close actually lands.
     */
    void closeRound(std::size_t meta_idx, uint32_t rnd, double &cost,
                    BlockCloseReason reason);

    /**
     * The single relaxed enabled check of the journal plane: one
     * relaxed pointer load; emits only when a journal is attached.
     * Never touches the tracer's shared words.
     */
    void journalEmit(JournalEventKind kind, uint16_t core,
                     uint64_t block, uint64_t arg) const
    {
        if (EventJournal *j = jnl.load(std::memory_order_relaxed);
            j != nullptr)
            j->emit(kind, core, block, arg);
    }

    /**
     * Find, lock, and install a fresh data block for @p core (§4.2).
     * @p local_word is the core-local snapshot the caller acted on.
     */
    AdvanceResult tryAdvance(uint16_t core, uint64_t local_word,
                             double &cost);

    /**
     * tryAdvance under a retry-phase probe (DESIGN.md §14): the
     * advancement/backoff work a writer performs when its block is
     * exhausted or stolen is the fast path's "retry" cost bucket.
     * @p pf is the caller's one activeProfiler() load; disarmed this
     * is tryAdvance plus a predicted branch.
     */
    AdvanceResult
    timedAdvance(CostProfiler *pf, uint16_t core, uint64_t local_word,
                 double &cost)
    {
        PhaseProbe probe(pf, ProfilePhase::Retry);
        return tryAdvance(core, local_word, cost);
    }

    /**
     * Speculative consumer read of one physical block (§4.3).
     * Appends parsed entries and tallies skipped blocks on @p out;
     * Unreadable and Abandoned outcomes are returned *unclassified* —
     * the caller decides whether to wait for the block (dumpFrom near
     * the frontier), or whether it is a transient abandoned read
     * (dump) or permanently overwritten data (dumpFrom at a lapped
     * position).
     */
    BlockReadStatus readBlock(uint64_t phys, uint64_t window_start,
                              uint64_t window_end,
                              std::vector<uint8_t> &scratch, Dump &out);

    BTraceConfig cfg;
    std::size_t cap;           //!< block capacity bytes (= cfg.blockSize)
    std::size_t numActive;     //!< A
    std::size_t maxN;          //!< resize ceiling in blocks

    VirtualSpan span;

    /**
     * Coordination state (§3.2's A metadata blocks, the global packed
     * RatioPos, and the per-core words). The pointers resolve into the
     * arena's control region for shm/file backends — the very same
     * cache lines in every attachment — and into ctrlHeap for the
     * private backend. Bound once by bindControl(); the access syntax
     * (meta[i], global->load, coreLocal[c]->store) is identical either
     * way.
     */
    ControlView ctrl;
    MetadataBlock *meta = nullptr;
    std::atomic<uint64_t> *global = nullptr;  //!< RatioPos packed
    CacheAligned<std::atomic<uint64_t>> *coreLocal = nullptr;
    /** Private-backend backing for the control layout (else null). */
    std::unique_ptr<uint8_t, void (*)(uint8_t *)> ctrlHeap{
        nullptr, +[](uint8_t *) {}};

    bool shared = false;   //!< control state lives in a shared arena
    bool owner_ = true;    //!< this attachment created the arena
    uint64_t attachGen = 0;  //!< generation drawn at map time (0=private)
    uint32_t pid_ = 0;
    /** Index of this attachment's ProducerSlot (registry). */
    std::size_t producerSlotIdx = 0;

    RatioLog ratioLog;
    std::mutex resizeMutex;
    EpochRegistry consumers;
    BTraceCounters ctrs;
    /** Lifecycle journal; nullptr = disabled (the common fast path). */
    std::atomic<EventJournal *> jnl{nullptr};
    /**
     * Runtime control plane (DESIGN.md §12). Constructed by both
     * constructors once the control region is bound — never null
     * afterwards. With all knobs at defaults it publishes a nullptr
     * snapshot, so the record path stays byte-identical to a build
     * without the plane (ControlContract test).
     */
    std::unique_ptr<ControlPlane> plane;
};

} // namespace btrace

#endif // BTRACE_CORE_BTRACE_H
