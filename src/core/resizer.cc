/**
 * @file
 * Runtime buffer resizing via implicit reclamation (§3.3, §4.4).
 *
 * The data area lives in a virtual span reserved at the maximum size;
 * resizing only changes the Ratio in the global ratio_and_pos and the
 * physical commitment. Producers are quiesced implicitly: a block that
 * reached Confirmed.pos == capacity is, by construction, no longer
 * accessed by any producer in this round (the end-of-epoch semantic of
 * §3.3), so once every metadata block is complete the whole data area
 * is producer-free. Consumers are flushed with conventional EBR.
 */

#include <thread>

#include "common/test_hooks.h"
#include "core/btrace.h"

namespace btrace {

Status
BTrace::tryResize(std::size_t new_num_blocks)
{
    // Same preconditions resize() asserts, surfaced as a Status so a
    // runtime actuator (the governor) can decline gracefully instead
    // of taking the process down.
    if (new_num_blocks < numActive ||
        new_num_blocks % numActive != 0 || new_num_blocks > maxN)
        return errInvalidArgument(
            "resize target must be a multiple of A within "
            "[A, maxBlocks]");
    if (shared) {
        std::size_t live = 0;
        for (std::size_t i = 0; i < kMaxAttachments; ++i)
            if (ctrl.producers[i].attachGen.load(
                    std::memory_order_acquire) != 0)
                ++live;
        if (live > 1)
            return errBusy(
                "resize requires being the arena's sole live "
                "attachment (per-process RatioLog)");
    }
    resize(new_num_blocks);
    return Status();
}

void
BTrace::resize(std::size_t new_num_blocks)
{
    std::scoped_lock lock(resizeMutex);

    BTRACE_ASSERT(new_num_blocks >= numActive &&
                  new_num_blocks % numActive == 0 &&
                  new_num_blocks <= maxN,
                  "resize target must be a multiple of A within "
                  "[A, maxBlocks]");

    // Multi-process arenas: the RatioLog that maps positions to
    // physical blocks is per-process, so a resize would silently
    // mis-resolve positions in every other attachment. Allowed only
    // while this is the sole live attachment (DESIGN.md §11).
    if (shared) {
        std::size_t live = 0;
        for (std::size_t i = 0; i < kMaxAttachments; ++i)
            if (ctrl.producers[i].attachGen.load(
                    std::memory_order_acquire) != 0)
                ++live;
        BTRACE_ASSERT(live <= 1,
                      "resize requires being the arena's sole live "
                      "attachment (per-process RatioLog)");
    }
    const auto new_ratio =
        static_cast<uint32_t>(new_num_blocks / numActive);

    // Park block advancement (slow path only; the fast path never
    // reads the global word) while the mapping changes.
    const uint64_t frozen_word =
        global->fetch_or(RatioPos::frozenBit, std::memory_order_acq_rel);
    const RatioPos g = RatioPos::unpack(frozen_word);
    BTRACE_ASSERT(!g.frozen, "resize while already frozen");
    const uint32_t old_ratio = g.ratio;
    journalEmit(JournalEventKind::ResizeBegin, EventJournal::kNoCore,
                g.pos, new_num_blocks);

    if (new_ratio == old_ratio) {
        global->fetch_and(~RatioPos::frozenBit,
                          std::memory_order_acq_rel);
        journalEmit(JournalEventKind::ResizeEnd, EventJournal::kNoCore,
                    g.pos, new_ratio);
        return;
    }

    const std::size_t old_n = numActive * old_ratio;
    const std::size_t new_n = numActive * new_ratio;
    if (new_n > old_n)
        span.commit(old_n * cap, (new_n - old_n) * cap);

    // Journaled before the yield point below: a flight bundle taken
    // while the resize is parked here must already show the freeze.
    journalEmit(JournalEventKind::ResizeFreeze, EventJournal::kNoCore,
                g.pos, old_ratio);

    // Critical window: advancement is frozen but blocks are not yet
    // quiesced; producers may still be confirming in-flight writes.
    BTRACE_TEST_YIELD(ResizePostFreeze);

    // Quiesce: close every active block and wait for outstanding
    // confirmations. New reservations overshoot into the advancement
    // path, which is parked — so no new activity can appear.
    journalEmit(JournalEventKind::ReclaimStart, EventJournal::kNoCore,
                g.pos, old_n);
    for (std::size_t m = 0; m < numActive; ++m) {
        for (;;) {
            const RndPos conf = meta[m].loadConfirmed();
            if (conf.pos == cap)
                break;
            closeRound(spareShard(), m, conf.rnd, BlockCloseReason::Resize);
            if (meta[m].loadConfirmed().pos == cap)
                break;
            std::this_thread::yield();  // a preempted writer owes bytes
        }
    }
    journalEmit(JournalEventKind::ReclaimEnd, EventJournal::kNoCore,
                g.pos, old_n);

    // Swing the ratio, keeping the monotonic position (frozen
    // advancement attempts still consume positions, hence the CAS
    // loop). The RatioLog entry becomes visible together with the
    // unfrozen global word.
    uint64_t cur = global->load(std::memory_order_acquire);
    bool staged = false;
    for (;;) {
        const RatioPos c = RatioPos::unpack(cur);
        if (!staged) {
            ratioLog.stage(c.pos, new_ratio);
            staged = true;
        } else {
            ratioLog.restage(c.pos);
        }
        const uint64_t desired = RatioPos::pack(new_ratio, false, c.pos);
        if (global->compare_exchange_strong(cur, desired,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire))
            break;
    }
    ratioLog.publish();
    spareShard().resizes.fetch_add(1, std::memory_order_relaxed);
    journalEmit(JournalEventKind::ResizeEnd, EventJournal::kNoCore,
                g.pos, new_ratio);

    // Keep the arena self-describing: an offline decoder reads N from
    // the header, so it must follow every ratio swing.
    if (ArenaHeader *h = span.backend()->header())
        h->numBlocks.store(new_n, std::memory_order_release);

    if (new_n < old_n) {
        // Make sure no consumer still reads the shrunk tail, then
        // release the physical pages (the virtual range stays mapped,
        // so stale pointers read zeros instead of faulting). With
        // sub-page block sizes the span rounds the shrunk byte range
        // *inward* to page boundaries; edge pages shared with live
        // blocks stay resident.
        consumers.synchronize();
        // Critical window: every consumer epoch has been flushed; any
        // reader starting now sees the new geometry, so decommit can
        // only zero pages no guarded reader still trusts.
        BTRACE_TEST_YIELD(ResizePreDecommit);
        span.decommit(new_n * cap, (old_n - new_n) * cap);
    }
}

} // namespace btrace
