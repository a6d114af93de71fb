/**
 * @file
 * Randomized API-sequence tests: a deterministic fuzzer mixes
 * allocations, out-of-order confirms, long-held tickets, dumps,
 * stream polls, and resizes, checking global invariants after every
 * consumer operation. Seeds are fixed, so failures reproduce.
 */

#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "common/prng.h"
#include "core/btrace.h"

namespace btrace {
namespace {

class FuzzCase : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzCase, RandomOpSequenceKeepsInvariants)
{
    Prng rng(GetParam());

    BTraceConfig cfg;
    cfg.blockSize = 256 << rng.nextBounded(3);  // 256..1024
    cfg.activeBlocks = 8;
    cfg.numBlocks = cfg.activeBlocks * (1 + rng.nextBounded(6));
    cfg.maxBlocks = cfg.activeBlocks * 8;
    cfg.cores = 1 + unsigned(rng.nextBounded(4));
    BTrace bt(cfg);

    uint64_t stamp = 0;
    DumpCursor cursor;
    std::set<uint64_t> streamed;
    std::deque<WriteTicket> held;
    const uint32_t max_payload =
        uint32_t(cfg.maxPayloadBytes());

    auto check_dump = [&](const Dump &d, bool stream) {
        std::set<uint64_t> seen;
        for (const DumpEntry &e : d.entries) {
            ASSERT_GE(e.stamp, 1u);
            ASSERT_LE(e.stamp, stamp);
            ASSERT_TRUE(e.payloadOk) << "torn entry " << e.stamp;
            ASSERT_TRUE(seen.insert(e.stamp).second)
                << "duplicate " << e.stamp;
            if (stream) {
                ASSERT_TRUE(streamed.insert(e.stamp).second)
                    << "stream returned " << e.stamp << " twice";
            }
        }
    };

    for (int op = 0; op < 4000; ++op) {
        const uint64_t dice = rng.nextBounded(100);
        const auto core = uint16_t(rng.nextBounded(cfg.cores));
        if (dice < 70) {
            // Plain write with a random payload size. With enough
            // held (preempted) tickets every metadata block can be
            // pinned; releasing the oldest mirrors that writer being
            // rescheduled, after which the write must succeed.
            const auto payload =
                uint32_t(rng.nextBounded(max_payload + 1));
            WriteTicket t = bt.allocate(core, core, payload);
            while (t.status != AllocStatus::Ok && !held.empty()) {
                bt.confirm(held.front());
                held.pop_front();
                t = bt.allocate(core, core, payload);
            }
            ASSERT_EQ(t.status, AllocStatus::Ok);
            writeNormal(t.dst, ++stamp, core, core, 0, payload);
            bt.confirm(t);
        } else if (dice < 80) {
            // Open a held (preempted) write.
            if (held.size() < 8) {
                WriteTicket t = bt.allocate(core, 77, 16);
                if (t.status == AllocStatus::Ok) {
                    writeNormal(t.dst, ++stamp, core, 77, 0, 16);
                    held.push_back(t);
                } else {
                    // Every metadata block held: release one first.
                    ASSERT_FALSE(held.empty());
                    bt.confirm(held.front());
                    held.pop_front();
                }
            }
        } else if (dice < 90 && !held.empty()) {
            // Confirm the oldest held write (out of order vs newer
            // fast-path confirms).
            bt.confirm(held.front());
            held.pop_front();
        } else if (dice < 96) {
            check_dump(bt.dump(), false);
        } else if (dice < 99) {
            check_dump(
                bt.dumpFrom(cursor,
                            DumpOptions{.closeActive = rng.chance(0.5)}),
                true);
        } else if (held.empty()) {
            // Resize needs all writers quiescent (blocking op).
            const std::size_t target =
                cfg.activeBlocks * (1 + rng.nextBounded(8));
            bt.resize(target);
            ASSERT_EQ(bt.numBlocks(), target);
        }
    }

    // Drain held writes, then the final dump must be fully coherent.
    while (!held.empty()) {
        bt.confirm(held.front());
        held.pop_front();
    }
    check_dump(bt.dump(), false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCase,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));

} // namespace
} // namespace btrace
