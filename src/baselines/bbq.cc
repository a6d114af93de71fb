#include "baselines/bbq.h"

#include <algorithm>
#include <atomic>
#include <cstring>

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

Bbq::Bbq(const BbqConfig &config, const CostModel &model)
    : Tracer(model), cfg(config), cap(config.blockSize),
      n(config.numBlocks), data(config.numBlocks * config.blockSize),
      meta(config.numBlocks)
{
    BTRACE_ASSERT(cap >= 64 && cap % 8 == 0, "bad block size");
    BTRACE_ASSERT(n >= 2, "need at least two blocks");

    // Round 0 is a synthetic complete round so the first advancement
    // per block needs no special case (same trick as BTrace).
    for (auto &m : meta) {
        m.allocated.store(RndPos::pack(0, uint32_t(cap)),
                          std::memory_order_relaxed);
        m.confirmed.store(RndPos::pack(0, uint32_t(cap)),
                          std::memory_order_relaxed);
    }
    // Pre-open the block at the initial head position (round 1).
    writeBlockHeader(blockData(0), n);
    meta[0].allocated.store(
        RndPos::pack(1, EntryLayout::blockHeaderBytes),
        std::memory_order_relaxed);
    meta[0].confirmed.store(
        RndPos::pack(1, EntryLayout::blockHeaderBytes),
        std::memory_order_relaxed);
    head->store(n, std::memory_order_release);
}

std::size_t
Bbq::capacityBytes() const
{
    return n * cap;
}

std::size_t
Bbq::recentDistinctCores() const
{
    uint64_t mask = 0;
    for (const auto &slot : recentCores) {
        const uint16_t v = slot.load(std::memory_order_relaxed);
        if (v)
            mask |= uint64_t(1) << (v - 1) % 64;
    }
    return std::size_t(__builtin_popcountll(mask));
}

WriteTicket
Bbq::allocate(uint16_t core, uint32_t thread, uint32_t payload_len)
{
    const auto need = static_cast<uint32_t>(
        EntryLayout::normalSize(payload_len));
    BTRACE_DASSERT(need <= cap - EntryLayout::blockHeaderBytes,
                   "entry larger than a block");

    WriteTicket ticket;
    ticket.core = core;
    ticket.thread = thread;
    ticket.cost = costs.tscRead + costs.setupOverhead;

    for (int attempt = 0; attempt < 64; ++attempt) {
        const uint64_t hp = head->load(std::memory_order_acquire);
        const uint64_t blk_idx = hp % n;
        const auto rnd = static_cast<uint32_t>(hp / n);
        MetadataBlock &m = meta[blk_idx];

        // Guard the fetch_add with a plain load: once the block is
        // exhausted, further unconditional adds would only pump the
        // Pos field towards a 32-bit overflow while the head is
        // blocked behind an unfinished block.
        const RndPos pre = m.loadAllocated(std::memory_order_relaxed);
        if (pre.rnd != rnd || pre.pos >= cap) {
            if (pre.rnd >= rnd && !tryAdvanceHead(hp, ticket.cost)) {
                ticket.status = AllocStatus::Retry;
                return ticket;
            }
            continue;
        }

        const RndPos old = RndPos::unpack(m.allocated.fetch_add(
            need, std::memory_order_acq_rel));
        // The Allocated word of the *one* current block is hammered by
        // every core in the system: charge shared-line contention for
        // each distinct core recently on the line, plus the in-flight
        // writers still holding unconfirmed space.
        recentCores[recentIdx.fetch_add(1, std::memory_order_relaxed) %
                    recentWindow]
            .store(core + 1, std::memory_order_relaxed);
        const std::size_t contenders =
            recentDistinctCores() +
            std::size_t(inflight->load(std::memory_order_relaxed));
        ticket.cost += costs.atomicShared +
                       costs.contention(contenders > 0 ? contenders - 1
                                                       : 0);

        if (old.rnd == rnd) {
            if (old.pos + need <= cap) {
                BTRACE_ASSERT(blk_idx * cap + old.pos + need <=
                              data.size(), "BBQ grant out of range");
                ticket.dst = blockData(blk_idx) + old.pos;
                ticket.entrySize = need;
                ticket.handle.slot = static_cast<uint32_t>(blk_idx);
                ticket.status = AllocStatus::Ok;
                inflight->fetch_add(1, std::memory_order_relaxed);
                return ticket;
            }
            if (old.pos < cap) {
                const auto gap = static_cast<uint32_t>(cap - old.pos);
                writeDummy(blockData(blk_idx) + old.pos, gap);
                m.confirmed.fetch_add(gap, std::memory_order_acq_rel);
                ticket.cost += costs.atomicShared + costs.copy(8);
            }
            if (!tryAdvanceHead(hp, ticket.cost)) {
                ticket.status = AllocStatus::Retry;
                return ticket;  // blocked behind an unfinished block
            }
            continue;
        }

        // Stale reservation into a newer round of this block: honour
        // the byte-accounting invariant with a dummy fill.
        if (old.rnd > rnd && old.pos < cap) {
            const auto claim = static_cast<uint32_t>(
                std::min<uint64_t>(need, cap - old.pos));
            writeDummy(blockData(blk_idx) + old.pos, claim);
            m.confirmed.fetch_add(claim, std::memory_order_acq_rel);
        }
    }

    ticket.status = AllocStatus::Retry;
    return ticket;
}

void
Bbq::confirm(WriteTicket &ticket)
{
    BTRACE_DASSERT(ticket.status == AllocStatus::Ok, "confirm without Ok");
    meta[ticket.handle.slot].confirmed.fetch_add(ticket.entrySize,
                                            std::memory_order_acq_rel);
    inflight->fetch_sub(1, std::memory_order_relaxed);
    ticket.cost += costs.atomicShared;
}

bool
Bbq::tryAdvanceHead(uint64_t head_pos, double &cost)
{
    const uint64_t next = head_pos + 1;
    const uint64_t blk_idx = next % n;
    const auto next_rnd = static_cast<uint32_t>(next / n);
    MetadataBlock &m = meta[blk_idx];

    uint64_t cw = m.confirmed.load(std::memory_order_acquire);
    const RndPos conf = RndPos::unpack(cw);

    if (conf.rnd >= next_rnd) {
        // Someone already prepared (or passed) this block; just help
        // the head along.
        uint64_t expected = head_pos;
        head->compare_exchange_strong(expected, next,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed);
        cost += costs.atomicShared;
        return true;
    }

    if (!(conf.rnd == next_rnd - 1 && conf.pos == cap)) {
        // Overwrite mode must wait for the oldest block to be fully
        // confirmed: a preempted writer blocks the whole queue.
        blocked.fetch_add(1, std::memory_order_relaxed);
        cost += costs.retryBackoff;
        return false;
    }

    if (m.confirmed.compare_exchange_strong(cw, RndPos::pack(next_rnd, 0),
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
        writeBlockHeader(blockData(blk_idx), next);
        uint64_t aw = m.allocated.load(std::memory_order_acquire);
        while (!m.allocated.compare_exchange_weak(
                   aw, RndPos::pack(next_rnd,
                                    EntryLayout::blockHeaderBytes),
                   std::memory_order_acq_rel, std::memory_order_acquire)) {
        }
        m.confirmed.fetch_add(EntryLayout::blockHeaderBytes,
                              std::memory_order_acq_rel);
        cost += costs.atomicShared * 3 + costs.copy(16);
    }

    uint64_t expected = head_pos;
    head->compare_exchange_strong(expected, next,
                                  std::memory_order_acq_rel,
                                  std::memory_order_relaxed);
    cost += costs.atomicShared;
    return true;
}

Dump
Bbq::dump()
{
    Dump out;
    const uint64_t hp = head->load(std::memory_order_acquire);
    const uint64_t window_end = hp + 1;
    const uint64_t window_start = window_end > n ? window_end - n : 0;

    std::vector<uint8_t> scratch(cap);
    for (uint64_t blk_idx = 0; blk_idx < n; ++blk_idx) {
        const uint8_t *src = blockData(blk_idx);
        const uint64_t word0 = loadSharedWord(src);
        if (!Descriptor::validMagic(word0))
            continue;
        if (Descriptor::unpack(word0).type != EntryType::BlockHeader)
            continue;
        const uint64_t q = loadSharedWord(src + 8);
        if (q < window_start || q >= window_end)
            continue;

        const auto rnd = static_cast<uint32_t>(q / n);
        const RndPos conf = meta[blk_idx].loadConfirmed();
        std::size_t readable = 0;
        if (conf.rnd == rnd) {
            if (conf.pos == cap) {
                readable = cap;
            } else {
                const RndPos alloc = meta[blk_idx].loadAllocated();
                if (alloc.rnd == rnd && alloc.pos == conf.pos) {
                    readable = conf.pos;
                } else {
                    ++out.unreadableBlocks;
                    continue;
                }
            }
        } else {
            continue;
        }

        for (std::size_t w = 0; w < readable; w += 8) {
            const uint64_t word = loadSharedWord(src + w);
            std::memcpy(scratch.data() + w, &word, 8);
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        if (loadSharedWord(src + 8) != q) {
            ++out.abandonedBlocks;
            continue;
        }

        EntryCursor cursor(scratch.data() + EntryLayout::blockHeaderBytes,
                           readable - EntryLayout::blockHeaderBytes);
        EntryView view;
        bool bad = false;
        std::vector<DumpEntry> parsed;
        while (cursor.next(view)) {
            if (view.type != EntryType::Normal)
                continue;
            parsed.push_back(DumpEntry{view.stamp, view.size, view.core,
                                       view.thread, view.category,
                                       view.payloadOk});
        }
        bad = cursor.malformed();
        if (bad) {
            ++out.abandonedBlocks;
            continue;
        }
        out.entries.insert(out.entries.end(), parsed.begin(),
                           parsed.end());
    }
    return out;
}

} // namespace btrace
