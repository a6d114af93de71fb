/**
 * @file
 * Speculative consumer (§4.3): copy a block optimistically with
 * relaxed atomic word loads, then re-validate the block header and the
 * metadata; abandon the block on any sign of concurrent overwrite.
 */

#include <algorithm>
#include <atomic>

#include "common/sanitize.h"
#include "common/test_hooks.h"
#include "core/btrace.h"

namespace btrace {

namespace {

uint64_t
loadSharedWord(const uint8_t *src)
{
    return std::atomic_ref<const uint64_t>(
               *reinterpret_cast<const uint64_t *>(src))
        .load(std::memory_order_relaxed);
}

} // namespace

BlockReadStatus
BTrace::readBlock(uint64_t phys, uint64_t window_start,
                  uint64_t window_end, std::vector<uint8_t> &scratch,
                  Dump &out)
{
    const uint8_t *src = blockData(phys);

    const uint64_t word0 = loadSharedWord(src);
    if (!Descriptor::validMagic(word0))
        return BlockReadStatus::Empty;  // never used, or decommitted
    const Descriptor desc = Descriptor::unpack(word0);

    if (desc.type == EntryType::Skip) {
        const uint64_t pos = loadSharedWord(src + 8);
        if (pos >= window_start && pos < window_end) {
            ++out.skippedBlocks;
            return BlockReadStatus::Skipped;
        }
        return BlockReadStatus::Stale;
    }
    if (desc.type != EntryType::BlockHeader)
        return BlockReadStatus::Empty;  // interior bytes; not a block start

    const uint64_t q = loadSharedWord(src + 8);
    if (q < window_start || q >= window_end)
        return BlockReadStatus::Stale;  // outside the last-N window

    const std::size_t meta_idx = q % numActive;
    const auto rnd = static_cast<uint32_t>(q / numActive);
    const MetadataBlock &m = meta[meta_idx];

    const RndPos conf = m.loadConfirmed();
    std::size_t readable = 0;
    if (conf.rnd == rnd) {
        if (conf.pos == cap) {
            readable = cap;  // complete current-round block
        } else {
            // Active block: readable only when every reservation has
            // been confirmed (Allocated.pos == Confirmed.pos, §4.1).
            const RndPos alloc = m.loadAllocated();
            if (alloc.rnd == rnd && alloc.pos == conf.pos)
                readable = conf.pos;
            else
                return BlockReadStatus::Unreadable;
        }
    } else if (conf.rnd > rnd) {
        // Older round of this metadata: considered filled (§3.3). The
        // physical block may since have been re-locked; the post-copy
        // header re-check below catches that.
        readable = cap;
    } else {
        return BlockReadStatus::Stale;  // header claims a future round
    }

    // readable is a sum of 8-byte-aligned entry sizes in any healthy
    // state; a torn or corrupted metadata word must degrade to a short
    // read, never to the word-copy loop writing past scratch's end.
    const std::size_t copy_len = readable & ~std::size_t(7);
    if (copy_len < EntryLayout::blockHeaderBytes)
        return BlockReadStatus::Unreadable;  // corrupt; nothing parseable
    if (scratch.size() < copy_len)
        scratch.resize(copy_len);
    for (std::size_t w = 0; w < copy_len; w += 8) {
        const uint64_t word = loadSharedWord(src + w);
        std::memcpy(scratch.data() + w, &word, 8);
    }
    std::atomic_thread_fence(std::memory_order_acquire);

    // Critical window: the speculative copy is complete but not yet
    // validated; any concurrent write to this block must now be
    // detected and the copy abandoned (§4.3).
    BTRACE_TEST_YIELD(ReadPostCopy);

    // Re-validate: same header, and for current-round blocks the same
    // confirmation state (a change means writers touched the block
    // mid-copy).
    const uint64_t word0b = loadSharedWord(src);
    const uint64_t qb = loadSharedWord(src + 8);
    bool valid = word0b == word0 && qb == q;
    if (valid && conf.rnd == rnd) {
        const RndPos conf2 = m.loadConfirmed();
        valid = conf2 == conf ||
                (conf.pos == cap && conf2.rnd == rnd);
        if (valid && readable < cap) {
            const RndPos alloc2 = m.loadAllocated();
            valid = alloc2.rnd == rnd && alloc2.pos == conf.pos;
        }
    }
    if (!valid)
        return BlockReadStatus::Abandoned;

    // Parse the copy; discard the whole block if the tiling is broken
    // (conservative: a torn block must never contaminate the dump).
    EntryCursor cursor(scratch.data() + EntryLayout::blockHeaderBytes,
                       copy_len - EntryLayout::blockHeaderBytes);
    std::vector<DumpEntry> parsed;
    EntryView view;
    while (cursor.next(view)) {
        if (view.type != EntryType::Normal)
            continue;
        DumpEntry e;
        e.stamp = view.stamp;
        e.size = view.size;
        e.core = view.core;
        e.thread = view.thread;
        e.category = view.category;
        e.payloadOk = view.payloadOk;
        parsed.push_back(e);
    }
    if (cursor.malformed())
        return BlockReadStatus::Abandoned;
    out.entries.insert(out.entries.end(), parsed.begin(), parsed.end());
    return BlockReadStatus::Data;
}

Dump
BTrace::dump()
{
    // Snapshot-peek over the whole retention window: a fresh cursor in
    // readOpen mode reads every readable block (open ones included),
    // closes nothing, and reports no loss accounting.
    DumpCursor fresh;
    DumpOptions opts;
    opts.readOpen = true;
    return dumpFrom(fresh, opts);
}

Dump
BTrace::dumpFrom(DumpCursor &cursor, const DumpOptions &opts)
{
    Dump out;
    EpochRegistry::Guard guard(consumers);

    const RatioPos g =
        RatioPos::unpack(global->load(std::memory_order_acquire));
    const uint64_t n = numActive * g.ratio;
    const uint64_t window_end = g.pos;
    const uint64_t window_start = window_end > n ? window_end - n : 0;

    // Snapshot-peek mode (closeActive wins when both are set): read
    // open blocks in place, keep walking past them, and suppress the
    // loss accounting — a snapshot re-reads the same window later, so
    // charging overwrittenPositions would misreport retention churn as
    // data loss.
    const bool peek = opts.readOpen && !opts.closeActive;

    // Catch up to the overwrite frontier (§4.3): positions the
    // producers already lapped are gone. Report how many, so the
    // caller sees the data loss instead of a silent cursor jump.
    if (!peek && window_start > cursor.position)
        out.overwrittenPositions = window_start - cursor.position;
    uint64_t q = std::max(cursor.position, window_start);

    // Whether to stop at position p, and resume there next pass, when
    // its block cannot be read yet: only near the frontier, where an
    // open lease or an advancement in flight completes soon, and only
    // with a later pass to come. Farther back the block is walked past
    // — one stuck block (a writer killed mid-write) must not hold back
    // the complete blocks after it until the producers lap them.
    const auto waitAt = [&](uint64_t p) {
        return !opts.lastPass && window_end - p <= 2 * numActive;
    };

    std::vector<uint8_t> scratch(cap);
    double close_cost = 0.0;
    for (; q < window_end; ++q) {
        const std::size_t meta_idx = q % numActive;
        const auto rnd = static_cast<uint32_t>(q / numActive);
        const MetadataBlock &m = meta[meta_idx];
        const RndPos conf = m.loadConfirmed();
        bool unconfirmed = false;  // walked past with writes in flight

        if (conf.rnd == rnd && conf.pos < cap) {
            // Current-round block, still being filled. With
            // closeActive we shut it (§4.3 non-filled handling) so
            // its contents can be returned now and producers move to
            // a fresh block; a snapshot-peek reads it in place and
            // walks on; an incremental consumer stops here —
            // consuming a partial block would lose its later entries.
            if (opts.closeActive) {
                // Unconfirmed writes (an open lease, a preempted
                // writer) or an advancement still initializing the
                // block: stop here too while waitAt() allows. Past
                // that the block is read if it has completed by now,
                // and charged to unreadableBlocks if not.
                const RndPos alloc = m.loadAllocated();
                if (alloc.rnd == rnd && alloc.pos == conf.pos)
                    closeRound(meta_idx, rnd, close_cost,
                               BlockCloseReason::Consumer);
                else if (waitAt(q))
                    break;
                else
                    unconfirmed = true;
            } else if (!peek) {
                break;
            }
        } else if (conf.rnd < rnd) {
            // Metadata has not reached this round: either an
            // advancement in flight (worth waiting for near the
            // frontier) or a permanently orphaned candidate. A
            // snapshot never waits — it still reads the position (the
            // physical block may hold a countable skip marker) and
            // keeps walking.
            if (!peek) {
                if (waitAt(q))
                    break;
                continue;
            }
        }

        const BlockReadStatus r =
            readBlock(physicalOf(q), q, q + 1, scratch, out);
        if (r == BlockReadStatus::Data || r == BlockReadStatus::Skipped)
            continue;

        if (r == BlockReadStatus::Unreadable || unconfirmed) {
            // Not flagged above: a writer reserved between that check
            // and the close (or the metadata is corrupt). The same
            // rule as for a block found unconfirmed.
            if (!unconfirmed && !peek && waitAt(q))
                break;
            ++out.unreadableBlocks;
            continue;
        }

        if (peek) {
            // Snapshot semantics: a vanished or invalidated block is
            // a transient abandoned read, never charged as loss.
            if (r == BlockReadStatus::Abandoned)
                ++out.abandonedBlocks;
            continue;
        }

        // The block for q yielded nothing (vanished header, header
        // from another lap, or a copy invalidated mid-read). If the
        // producers have lapped q by now — the head moved a full
        // buffer past it while this dump was in flight — the data is
        // permanently gone and belongs in overwrittenPositions, the
        // same bucket as positions lost before the read started. A
        // failed speculative read used to be misfiled as a transient
        // abandonedBlocks (or dropped silently), hiding real data
        // loss at the wrap boundary.
        const RatioPos now = RatioPos::unpack(
            global->load(std::memory_order_acquire));
        if (now.pos > q + numActive * now.ratio)
            ++out.overwrittenPositions;
        else if (r == BlockReadStatus::Abandoned)
            ++out.abandonedBlocks;
    }
    if (!peek)
        journalEmit(JournalEventKind::ConsumerPass,
                    EventJournal::kNoCore, q, out.entries.size());
    cursor.position = q;
    return out;
}

Dump
BTrace::dumpSince(uint64_t &cursor, bool close_active)
{
    DumpCursor c;
    c.position = cursor;
    DumpOptions opts;
    opts.closeActive = close_active;
    Dump d = dumpFrom(c, opts);
    cursor = c.position;
    return d;
}

} // namespace btrace
