/**
 * @file
 * Speculative consumer (§4.3): parse a block in place with relaxed
 * atomic word loads, then re-validate the block header and the
 * metadata; abandon the block, and drop what the parse appended, on
 * any sign of concurrent overwrite.
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
BTrace::readBlock(uint64_t pos, std::size_t &offset, Dump &out)
{
    const uint8_t *src = blockData(physicalOf(pos));

    const uint64_t word0 = loadSharedWord(src);
    if (!Descriptor::validMagic(word0))
        return BlockReadStatus::Empty;  // never used, or decommitted
    const Descriptor desc = Descriptor::unpack(word0);

    if (desc.type == EntryType::Skip) {
        if (loadSharedWord(src + 8) != pos)
            return BlockReadStatus::Stale;
        ++out.skippedBlocks;
        return BlockReadStatus::Skipped;
    }
    if (desc.type != EntryType::BlockHeader)
        return BlockReadStatus::Empty;  // interior bytes; not a block start

    if (loadSharedWord(src + 8) != pos)
        return BlockReadStatus::Stale;  // another lap's block, or none yet

    const std::size_t meta_idx = pos % numActive;
    const auto rnd = static_cast<uint32_t>(pos / numActive);
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
    // parse that stays inside the block, never to whole words read
    // past its end.
    const std::size_t parse_len =
        std::min(readable, cap) & ~std::size_t(7);
    if (parse_len < EntryLayout::blockHeaderBytes)
        return BlockReadStatus::Unreadable;  // corrupt; nothing parseable
    // The offset came from an earlier read of the same shared words:
    // one beyond parse_len (Confirmed rewritten below what that read
    // took) or off the entry grid parses nothing.
    if (offset < EntryLayout::blockHeaderBytes || offset > parse_len ||
        offset % EntryLayout::align != 0)
        return BlockReadStatus::Unreadable;

    // Parse in place, straight into the caller's dump. Writers may be
    // overwriting the block meanwhile: the cursor reads only relaxed
    // atomic words and bounds every entry by parse_len, so at worst it
    // decodes garbage, which the re-validation below throws away.
    const std::size_t before = out.entries.size();
    EntryCursor cursor(src + offset, parse_len - offset);
    EntryView view;
    while (cursor.next(view)) {
        if (view.type != EntryType::Normal)
            continue;
        out.entries.push_back(DumpEntry{view.stamp, view.size, view.core,
                                        view.thread, view.category,
                                        view.payloadOk});
    }
    std::atomic_thread_fence(std::memory_order_acquire);

    // Critical window: the speculative parse is complete but not yet
    // validated; any concurrent write to this block must now be
    // detected and the parsed entries dropped (§4.3).
    BTRACE_TEST_YIELD(ReadPostCopy);

    // Re-validate: same header, and for current-round blocks the same
    // confirmation state (a change means writers touched the block
    // mid-copy).
    bool valid = loadSharedWord(src) == word0 &&
                 loadSharedWord(src + 8) == pos;
    if (valid && conf.rnd == rnd) {
        const RndPos conf2 = m.loadConfirmed();
        valid = conf2 == conf ||
                (conf.pos == cap && conf2.rnd == rnd);
        if (valid && readable < cap) {
            const RndPos alloc2 = m.loadAllocated();
            valid = alloc2.rnd == rnd && alloc2.pos == conf.pos;
        }
    }
    // Discard the whole block if it changed under the parse or its
    // tiling is broken (conservative: a torn block must never
    // contaminate the dump).
    if (!valid || cursor.malformed()) {
        out.entries.resize(before);
        return BlockReadStatus::Abandoned;
    }
    offset = parse_len;
    return BlockReadStatus::Data;
}

Dump
BTrace::dump()
{
    // A snapshot is the last pass of a fresh cursor: every readable
    // block of the retention window, open ones included. What lies
    // behind the window is retention churn, not loss, so it reports
    // no overwritten positions.
    DumpCursor fresh;
    Dump out = dumpFrom(fresh, DumpOptions{.lastPass = true});
    out.overwrittenPositions = 0;
    return out;
}

void
BTrace::dumpFrom(DumpCursor &cursor, const DumpOptions &opts, Dump &out)
{
    out.reset();
    EpochRegistry::Guard guard(consumers);

    const RatioPos g =
        RatioPos::unpack(global->load(std::memory_order_acquire));
    const uint64_t n = numActive * g.ratio;
    const uint64_t window_end = g.pos;
    const uint64_t window_start = window_end > n ? window_end - n : 0;

    // Catch up to the overwrite frontier (§4.3): positions the
    // producers already lapped are gone. Report how many, so the
    // caller sees the data loss instead of a silent cursor jump.
    if (window_start > cursor.position)
        out.overwrittenPositions = window_start - cursor.position;

    // Read the block at p on from @p offset; true when a later pass
    // must read it again, from the offset this read left.
    const auto visit = [&](uint64_t p, std::size_t &offset) {
        if (opts.closeActive) {
            // Close-on-read (§4.3 non-filled handling): shut a
            // current-round block whose reservations are all
            // confirmed, so the read below takes it to its end and
            // producers move on to a fresh block.
            const std::size_t meta_idx = p % numActive;
            const auto rnd = static_cast<uint32_t>(p / numActive);
            const MetadataBlock &m = meta[meta_idx];
            const RndPos conf = m.loadConfirmed();
            if (conf.rnd == rnd && conf.pos < cap &&
                m.loadAllocated() == conf)
                closeRound(spareShard(), meta_idx, rnd,
                           BlockCloseReason::Consumer);
        }

        const BlockReadStatus r = readBlock(p, offset, out);
        if (r == BlockReadStatus::Data)
            return offset < cap;  // an open block: read on next pass
        if (r == BlockReadStatus::Skipped)
            return false;

        // The block yielded nothing: writes still unconfirmed, a
        // header its advancement is still writing, a parse a writer's
        // publish invalidated, or no block at all. If the producers
        // have lapped p by now — the head moved a full buffer past it
        // while this pass was in flight — the data is permanently
        // gone, the same loss as positions lapped before the pass.
        const RatioPos now = RatioPos::unpack(
            global->load(std::memory_order_acquire));
        if (now.pos > p + numActive * now.ratio) {
            ++out.overwrittenPositions;
            return false;
        }
        // Near the frontier, with a later pass to come, read it again
        // then, uncharged: an open lease or an advancement in flight
        // completes soon. Farther back it is given up — one stuck
        // block (a writer killed mid-write) must not be waited for
        // until the producers lap it.
        if (!opts.lastPass && window_end - p <= 2 * numActive)
            return true;
        if (r == BlockReadStatus::Unreadable)
            ++out.unreadableBlocks;
        else if (r == BlockReadStatus::Abandoned)
            ++out.abandonedBlocks;
        return false;
    };

    // Read on the blocks earlier passes kept. One the producers lapped
    // meanwhile is one lost position.
    std::size_t kept = 0;
    for (DumpCursor::Partial b : cursor.partial) {
        if (b.position < window_start)
            ++out.overwrittenPositions;
        else if (visit(b.position, b.offset))
            cursor.partial[kept++] = b;
    }
    cursor.partial.resize(kept);

    // Positions below numActive are the synthetic round 0 that no
    // advancement ever hands out: nothing to read, and no loss either.
    // Touching them would fault in numActive never-written pages of a
    // young arena on every snapshot.
    uint64_t q = std::max({cursor.position, window_start,
                           uint64_t(numActive)});
    for (; q < window_end; ++q) {
        std::size_t offset = EntryLayout::blockHeaderBytes;
        if (visit(q, offset))
            cursor.partial.push_back({q, offset});
    }
    journalEmit(JournalEventKind::ConsumerPass, EventJournal::kNoCore, q,
                out.entries.size());
    cursor.position = q;
}

} // namespace btrace
