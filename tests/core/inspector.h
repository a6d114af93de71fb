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

    /** Lease owner record @p i of a shared arena's control region. */
    const LeaseOwnerRecord &ownerRecord(std::size_t i) const
    {
        return bt.ctrl.owners[i];
    }

    uint64_t physicalOf(uint64_t pos) const { return bt.physicalOf(pos); }

    const uint8_t *blockData(uint64_t phys) const
    {
        return bt.blockData(phys);
    }

    std::size_t ratioLogSize() const { return bt.ratioLog.size(); }

    /** The word at byte @p offset of physical block @p phys. */
    uint64_t blockWord(uint64_t phys, std::size_t offset) const
    {
        return std::atomic_ref<const uint64_t>(
                   *reinterpret_cast<const uint64_t *>(
                       bt.blockData(phys) + offset))
            .load(std::memory_order_relaxed);
    }

    /** Blocks closed by writes with no core: consumer, sweeper, resize. */
    uint64_t spareCloses() const
    {
        return bt.spareShard().closes.load(std::memory_order_relaxed);
    }

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

    /** Overwrite the word at byte @p offset of physical block @p phys. */
    void
    seedBlockWord(uint64_t phys, std::size_t offset, uint64_t word)
    {
        std::atomic_ref<uint64_t>(
            *reinterpret_cast<uint64_t *>(bt.blockData(phys) + offset))
            .store(word, std::memory_order_relaxed);
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
     * Direct call into the private speculative reader of position
     * @p pos's block (regression surface for its bounds on torn
     * metadata), from the block's first entry. Classifies Unreadable and Abandoned outcomes the
     * way dump() does.
     */
    BlockReadStatus
    readBlockRaw(uint64_t pos, Dump &out)
    {
        std::size_t offset = EntryLayout::blockHeaderBytes;
        const BlockReadStatus r = bt.readBlock(pos, offset, out);
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
