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
BTrace::readBlock(uint64_t phys, uint64_t window_start,
                  uint64_t window_end, std::size_t &offset, Dump &out)
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
    // Snapshot-peek over the whole retention window: a fresh cursor in
    // readOpen mode reads every readable block (open ones included),
    // closes nothing, and reports no loss accounting.
    DumpCursor fresh;
    DumpOptions opts;
    opts.readOpen = true;
    return dumpFrom(fresh, opts);
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

    // Snapshot-peek mode (closeActive wins when both are set): read
    // open blocks in place from their start, keep walking past them,
    // and suppress the loss accounting — a snapshot re-reads the same
    // window later, so charging overwrittenPositions would misreport
    // retention churn as data loss.
    const bool peek = opts.readOpen && !opts.closeActive;

    // Catch up to the overwrite frontier (§4.3): positions the
    // producers already lapped are gone. Report how many, so the
    // caller sees the data loss instead of a silent cursor jump.
    if (!peek && window_start > cursor.position)
        out.overwrittenPositions = window_start - cursor.position;

    // Whether to wait for the block at position p, when it cannot be
    // read yet: only near the frontier, where an open lease or an
    // advancement in flight completes soon, and only with a later
    // pass to come. Farther back it is given up — one stuck block (a
    // writer killed mid-write) must not be waited for until the
    // producers lap it.
    const auto waitAt = [&](uint64_t p) {
        return !opts.lastPass && window_end - p <= 2 * numActive;
    };

    // Read the block at p from @p offset. Done: finished with it.
    // Keep: read on from @p offset next pass. Stop: end the walk
    // here, resume at p next pass.
    enum class Next { Done, Keep, Stop };
    double close_cost = 0.0;
    const auto visit = [&](uint64_t p, std::size_t &offset) {
        const std::size_t meta_idx = p % numActive;
        const auto rnd = static_cast<uint32_t>(p / numActive);
        const MetadataBlock &m = meta[meta_idx];
        const RndPos conf = m.loadConfirmed();
        bool unconfirmed = false;  // walked past with writes in flight
        bool streamed = false;     // open block a streaming pass reads

        if (conf.rnd == rnd && conf.pos < cap) {
            // Current-round block, still being filled. With
            // closeActive we shut it (§4.3 non-filled handling) so
            // its contents can be returned now and producers move to
            // a fresh block; a snapshot-peek reads it in place; a
            // streaming pass reads its confirmed entries and comes
            // back for the rest.
            if (opts.closeActive) {
                // Unconfirmed writes (an open lease, a preempted
                // writer) or an advancement still initializing the
                // block: stop here too while waitAt() allows. Past
                // that the block is read if it has completed by now,
                // and charged to unreadableBlocks if not.
                const RndPos alloc = m.loadAllocated();
                if (alloc.rnd == rnd && alloc.pos == conf.pos)
                    closeRound(spareShard(), meta_idx, rnd, close_cost,
                               BlockCloseReason::Consumer);
                else if (waitAt(p))
                    return Next::Stop;
                else
                    unconfirmed = true;
            } else {
                streamed = !peek;
            }
        } else if (conf.rnd < rnd) {
            // Metadata has not reached this round: either an
            // advancement in flight (worth waiting for near the
            // frontier) or a permanently orphaned candidate. A
            // snapshot never waits — it still reads the position (the
            // physical block may hold a countable skip marker) and
            // keeps walking.
            if (!peek)
                return waitAt(p) ? Next::Stop : Next::Done;
        }

        const BlockReadStatus r =
            readBlock(physicalOf(p), p, p + 1, offset, out);
        if (r == BlockReadStatus::Data)
            return offset < cap && !peek ? Next::Keep : Next::Done;
        if (r == BlockReadStatus::Skipped)
            return Next::Done;

        if (r == BlockReadStatus::Unreadable || unconfirmed) {
            // Not flagged above: a writer reserved between that check
            // and the close (or the metadata is corrupt), or a
            // streamed block holds unconfirmed writes. The same rule
            // as for a block found unconfirmed.
            if (!unconfirmed && !peek && waitAt(p))
                return opts.closeActive ? Next::Stop : Next::Keep;
            ++out.unreadableBlocks;
            return Next::Done;
        }

        if (peek) {
            // Snapshot semantics: a vanished or invalidated block is
            // a transient abandoned read, never charged as loss.
            if (r == BlockReadStatus::Abandoned)
                ++out.abandonedBlocks;
            return Next::Done;
        }

        // The block for p yielded nothing (vanished header, header
        // from another lap, or a parse invalidated mid-read). If the
        // producers have lapped p by now — the head moved a full
        // buffer past it while this dump was in flight — the data is
        // permanently gone and belongs in overwrittenPositions, the
        // same bucket as positions lost before the read started. A
        // failed speculative read used to be misfiled as a transient
        // abandonedBlocks (or dropped silently), hiding real data
        // loss at the wrap boundary.
        const RatioPos now = RatioPos::unpack(
            global->load(std::memory_order_acquire));
        if (now.pos > p + numActive * now.ratio) {
            ++out.overwrittenPositions;
            return Next::Done;
        }
        // A streamed block whose parse a writer's publish invalidated,
        // or whose header its advancement is still writing: read it
        // again next pass, uncharged.
        if (streamed && waitAt(p))
            return Next::Keep;
        if (r == BlockReadStatus::Abandoned)
            ++out.abandonedBlocks;
        return Next::Done;
    };

    if (!peek) {
        // Finish or extend the blocks earlier passes read in part,
        // each from where its last read stopped. One the producers
        // lapped meanwhile is one lost position: the position a
        // cursor that waited at it would have charged.
        std::size_t kept = 0;
        for (DumpCursor::Partial b : cursor.partial) {
            if (b.position < window_start)
                ++out.overwrittenPositions;
            else if (visit(b.position, b.offset) != Next::Done)
                cursor.partial[kept++] = b;
        }
        cursor.partial.resize(kept);
    }

    // Positions below numActive are the synthetic round 0 that no
    // advancement ever hands out: nothing to read, and no loss either.
    // Touching them would fault in numActive never-written pages of a
    // young arena on every snapshot.
    uint64_t q = std::max({cursor.position, window_start,
                           uint64_t(numActive)});
    for (; q < window_end; ++q) {
        std::size_t offset = EntryLayout::blockHeaderBytes;
        const Next next = visit(q, offset);
        if (next == Next::Stop)
            break;
        if (next == Next::Keep)
            cursor.partial.push_back({q, offset});
    }
    if (!peek)
        journalEmit(JournalEventKind::ConsumerPass,
                    EventJournal::kNoCore, q, out.entries.size());
    cursor.position = q;
}

} // namespace btrace
