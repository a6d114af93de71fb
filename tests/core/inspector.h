/** @file White-box access to BTrace internals for unit tests. */

#ifndef BTRACE_TESTS_CORE_INSPECTOR_H
#define BTRACE_TESTS_CORE_INSPECTOR_H

#include "core/btrace.h"

namespace btrace {

/** Declared a friend of BTrace; exposes internal state read-only. */
class BTraceInspector
{
  public:
    explicit BTraceInspector(BTrace &t) : bt(t) {}

    RndPos allocated(std::size_t meta_idx) const
    {
        return bt.meta[meta_idx].loadAllocated();
    }

    RndPos confirmed(std::size_t meta_idx) const
    {
        return bt.meta[meta_idx].loadConfirmed();
    }

    RatioPos globalWord() const
    {
        return RatioPos::unpack(
            bt.global->load(std::memory_order_acquire));
    }

    RatioPos coreWord(unsigned core) const
    {
        return RatioPos::unpack(
            bt.coreLocal[core]->load(std::memory_order_acquire));
    }

    std::size_t activeBlocks() const { return bt.numActive; }

    /** Live atomic counters (test-only; prefer countersSnapshot()). */
    const BTraceCounters &rawCounters() const { return bt.ctrs; }

    uint64_t physicalOf(uint64_t pos) const { return bt.physicalOf(pos); }

    const uint8_t *blockData(uint64_t phys) const
    {
        return bt.blockData(phys);
    }

    std::size_t ratioLogSize() const { return bt.ratioLog.size(); }

    // --- State seeding (white-box; callers own consistency) ----------

    /** Overwrite one metadata block's Allocated/Confirmed words. */
    void
    seedMetadata(std::size_t meta_idx, RndPos alloc, RndPos conf)
    {
        bt.meta[meta_idx].allocated.store(alloc.packed(),
                                          std::memory_order_release);
        bt.meta[meta_idx].confirmed.store(conf.packed(),
                                          std::memory_order_release);
    }

    /** Overwrite the global ratio_and_pos word. */
    void
    seedGlobal(RatioPos word)
    {
        bt.global->store(word.packed(), std::memory_order_release);
    }

    /** Overwrite one core-local ratio_and_pos word. */
    void
    seedCoreWord(unsigned core, RatioPos word)
    {
        bt.coreLocal[core]->store(word.packed(),
                                  std::memory_order_release);
    }

    /**
     * Direct call into the private speculative reader, with a caller-
     * controlled scratch buffer (regression surface for the scratch
     * sizing contract). Classifies Unreadable and Abandoned outcomes
     * the way dump() does.
     */
    BlockReadStatus
    readBlockRaw(uint64_t phys, uint64_t window_start,
                 uint64_t window_end, std::vector<uint8_t> &scratch,
                 Dump &out)
    {
        const BlockReadStatus r =
            bt.readBlock(phys, window_start, window_end, scratch, out);
        if (r == BlockReadStatus::Unreadable)
            ++out.unreadableBlocks;
        if (r == BlockReadStatus::Abandoned)
            ++out.abandonedBlocks;
        return r;
    }

  private:
    BTrace &bt;
};

} // namespace btrace

#endif // BTRACE_TESTS_CORE_INSPECTOR_H
