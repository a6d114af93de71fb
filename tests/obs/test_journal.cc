/**
 * @file
 * Lifecycle event journal: ring semantics, the zero-shared-RMW
 * attachment contract (single-threaded and a deterministic concurrent
 * fast-path run), the transition-site coverage on a live tracer, and
 * the flight recorder — including the acceptance scenario: a bundle
 * captured while a resize is parked at ResizePostFreeze must contain
 * the ResizeFreeze journal event that explains the wedge.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/test_hooks.h"
#include "core/btrace.h"
#include "trace/event.h"
#include "obs/flight_recorder.h"
#include "obs/journal.h"
#include "sim/schedule.h"

using namespace btrace;
#if defined(BTRACE_ENABLE_TEST_HOOKS)
using btrace::hooks::YieldPoint;
#endif

namespace {

BTraceConfig
smallConfig()
{
    BTraceConfig cfg;
    cfg.blockSize = 256;
    cfg.cores = 2;
    cfg.activeBlocks = 4;
    cfg.numBlocks = 16;
    return cfg;
}

uint64_t
countKind(const std::vector<JournalRecord> &recs, JournalEventKind kind)
{
    uint64_t n = 0;
    for (const JournalRecord &r : recs)
        if (r.kind == kind) ++n;
    return n;
}

TEST(Journal, KindAndReasonNamesAreTotal)
{
    for (uint16_t k = 0;
         k < static_cast<uint16_t>(JournalEventKind::Count); ++k) {
        const char *name =
            journalEventKindName(static_cast<JournalEventKind>(k));
        EXPECT_STRNE(name, "unknown") << "kind " << k;
    }
    for (uint16_t r = 0;
         r < static_cast<uint16_t>(BlockCloseReason::Count); ++r) {
        const char *name =
            blockCloseReasonName(static_cast<BlockCloseReason>(r));
        EXPECT_STRNE(name, "unknown") << "reason " << r;
    }
    EXPECT_STREQ(journalEventKindName(JournalEventKind::ResizeFreeze),
                 "resize_freeze");
    EXPECT_STREQ(blockCloseReasonName(BlockCloseReason::Graveyard),
                 "graveyard");
}

TEST(Journal, RingOverwritesOldest)
{
    JournalOptions jo;
    jo.shards = 1;
    jo.recordsPerShard = 4;
    EventJournal j(jo);
    EXPECT_EQ(j.capacity(), 4u);
    EXPECT_EQ(j.shardCount(), 1u);

    for (uint64_t i = 1; i <= 10; ++i)
        j.emit(JournalEventKind::BlockOpen, 0, /*block=*/i, 0);

    EXPECT_EQ(j.emitted(), 10u);
    const std::vector<JournalRecord> recs = j.snapshot();
    ASSERT_EQ(recs.size(), 4u);
    // Overwrite-oldest: only the last four survive, in order.
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(recs[i].block, 7 + i);
        EXPECT_EQ(recs[i].seq, 7 + i);  // per-shard seq is 1-based
    }

    const std::vector<JournalRecord> tail = j.lastN(2);
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail[0].block, 9u);
    EXPECT_EQ(tail[1].block, 10u);
}

TEST(Journal, RecordsCarryKindCoreAndTid)
{
    EventJournal j;
    j.emit(JournalEventKind::BlockClose, 3, 42,
           uint64_t(BlockCloseReason::Straggler));
    j.emit(JournalEventKind::ConsumerPass, EventJournal::kNoCore, 7, 99);

    const std::vector<JournalRecord> recs = j.snapshot();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].kind, JournalEventKind::BlockClose);
    EXPECT_EQ(recs[0].core, 3u);
    EXPECT_EQ(recs[0].block, 42u);
    EXPECT_EQ(recs[0].arg, uint64_t(BlockCloseReason::Straggler));
    EXPECT_EQ(recs[1].kind, JournalEventKind::ConsumerPass);
    EXPECT_EQ(recs[1].core, EventJournal::kNoCore);
    EXPECT_EQ(recs[1].tid, EventJournal::currentTid());
    EXPECT_GE(recs[1].tsc, recs[0].tsc);
}

TEST(Journal, CoversTransitionSitesOnLiveTracer)
{
    BTrace bt(smallConfig());
    EventJournal j;
    bt.attachJournal(&j);
    ASSERT_EQ(bt.attachedJournal(), &j);

    // Fill plenty of 256-byte blocks: advancements journal opens, the
    // boundary fills journal full-closes.
    for (uint64_t s = 1; s <= 500; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 40));

    // A lease granted and closed half-used journals grant + revoke;
    // one granted and abandoned journals the abandonment.
    {
        Lease l = bt.lease(1, 2, 40, 4);
        ASSERT_TRUE(l.ok());
        WriteTicket t = l.allocate(40);
        ASSERT_TRUE(t.ok());
        writeNormal(t.dst, 1000, 1, 2, 0, 40);
        l.confirm(t);
        l.close();
    }
    {
        Lease l = bt.lease(1, 2, 40, 4);
        ASSERT_TRUE(l.ok());
        l.close();  // served nothing
    }

    // An incremental consumer pass journals its cursor advance.
    DumpCursor cursor;
    (void)bt.dumpFrom(cursor);

    const std::vector<JournalRecord> recs = j.snapshot();
    EXPECT_GT(countKind(recs, JournalEventKind::BlockOpen), 0u);
    EXPECT_GT(countKind(recs, JournalEventKind::BlockClose), 0u);
    EXPECT_EQ(countKind(recs, JournalEventKind::LeaseGrant), 2u);
    EXPECT_EQ(countKind(recs, JournalEventKind::LeaseRevoke), 1u);
    EXPECT_EQ(countKind(recs, JournalEventKind::LeaseAbandon), 1u);
    EXPECT_EQ(countKind(recs, JournalEventKind::ConsumerPass), 1u);

    // Full-closes carry their reason in arg.
    bool sawFull = false;
    for (const JournalRecord &r : recs) {
        if (r.kind == JournalEventKind::BlockClose &&
            static_cast<BlockCloseReason>(r.arg) ==
                BlockCloseReason::Full)
            sawFull = true;
    }
    EXPECT_TRUE(sawFull);

    // A resize journals begin/freeze/reclaim/end in order.
    bt.resize(8);
    const std::vector<JournalRecord> after = j.snapshot();
    EXPECT_EQ(countKind(after, JournalEventKind::ResizeBegin), 1u);
    EXPECT_EQ(countKind(after, JournalEventKind::ResizeFreeze), 1u);
    EXPECT_EQ(countKind(after, JournalEventKind::ReclaimStart), 1u);
    EXPECT_EQ(countKind(after, JournalEventKind::ReclaimEnd), 1u);
    EXPECT_EQ(countKind(after, JournalEventKind::ResizeEnd), 1u);

    bt.attachJournal(nullptr);
    EXPECT_EQ(bt.attachedJournal(), nullptr);
}

// The journal must not add RMW traffic on the tracer's shared words:
// identical single-threaded runs with and without an attached journal
// must report the same sharedRmws (same bar as ProfilerContract).
TEST(JournalContract, SharedRmwsUnchangedSingleThread)
{
    const auto run = [](EventJournal *j) {
        BTrace bt(smallConfig());
        if (j != nullptr)
            bt.attachJournal(j);
        for (uint64_t s = 1; s <= 500; ++s)
            EXPECT_TRUE(bt.record(0, 1, s, 40));
        return bt.countersSnapshot().sharedRmws;
    };
    const uint64_t bare = run(nullptr);
    EventJournal j;
    const uint64_t journaled = run(&j);
    EXPECT_EQ(bare, journaled);
    EXPECT_GT(j.emitted(), 0u);  // and the journal did record
}

// Concurrent fast-path run sized so the shared-RMW count is
// interleaving-independent: four threads on four distinct cores, each
// doing exactly one advancement (its first record) and then staying
// inside its own block — so bare and journaled totals must match
// exactly even though the schedules differ.
TEST(JournalContract, SharedRmwsUnchangedConcurrentFastPath)
{
    BTraceConfig cfg;
    cfg.blockSize = 4096;
    cfg.cores = 4;
    cfg.activeBlocks = 4;
    cfg.numBlocks = 8;

    const auto run = [&cfg](EventJournal *j) {
        BTrace bt(cfg);
        if (j != nullptr)
            bt.attachJournal(j);
        std::vector<std::thread> threads;
        for (uint16_t core = 0; core < 4; ++core) {
            threads.emplace_back([&bt, core]() {
                for (uint64_t i = 0; i < 20; ++i) {
                    ASSERT_TRUE(bt.record(core, core,
                                          uint64_t(core) * 1000 + i + 1,
                                          40));
                }
            });
        }
        for (std::thread &t : threads) t.join();
        return bt.countersSnapshot().sharedRmws;
    };

    const uint64_t bare = run(nullptr);
    EventJournal j;
    const uint64_t journaled = run(&j);
    EXPECT_EQ(bare, journaled);
    // Each thread's advancement journaled a BlockOpen.
    EXPECT_EQ(countKind(j.snapshot(), JournalEventKind::BlockOpen), 4u);
}

TEST(Journal, SnapshotIsSafeConcurrentWithEmitters)
{
    JournalOptions jo;
    jo.shards = 2;
    jo.recordsPerShard = 64;
    EventJournal j(jo);

    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < 2; ++w) {
        writers.emplace_back([&j, &stop]() {
            uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed))
                j.emit(JournalEventKind::BlockOpen, 0, ++i, 0);
        });
    }
    // Concurrent readers: every record returned must be well-formed
    // (a valid kind), lapped slots dropped rather than torn.
    for (int pass = 0; pass < 200; ++pass) {
        const std::vector<JournalRecord> recs = j.snapshot();
        for (const JournalRecord &r : recs) {
            ASSERT_LT(static_cast<uint16_t>(r.kind),
                      static_cast<uint16_t>(JournalEventKind::Count));
            ASSERT_GT(r.seq, 0u);
        }
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &t : writers) t.join();
}

TEST(FlightRecorderTest, BundleRoundTripsThroughParser)
{
    BTrace bt(smallConfig());
    EventJournal j;
    bt.attachJournal(&j);
    for (uint64_t s = 1; s <= 200; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 40));

    FlightRecorderOptions fo;
    fo.lastN = 64;
    FlightRecorder fr(bt, &j, fo);
    const std::string bundle = fr.render("unit_test");

    const ParsedFlightBundle p = parseFlightBundle(bundle);
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(p.trigger, "unit_test");
    EXPECT_EQ(p.counters.at("fast_allocs"), 200.0);
    EXPECT_GT(p.counters.at("shared_rmws"), 0.0);
    EXPECT_GT(p.gauges.at("head_position"), 0.0);
    EXPECT_EQ(p.gauges.at("blocks_complete") +
                  p.gauges.at("blocks_open") +
                  p.gauges.at("blocks_incomplete"),
              double(smallConfig().activeBlocks));
    ASSERT_EQ(p.slots.size(), smallConfig().activeBlocks);
    for (const auto &slot : p.slots) {
        EXPECT_TRUE(slot.count("alloc_pos"));
        EXPECT_TRUE(slot.count("conf_rnd"));
    }
    EXPECT_EQ(p.journalEmitted, j.emitted());
    ASSERT_FALSE(p.journal.empty());
    bool sawClose = false;
    for (const auto &e : p.journal) {
        if (e.kind == "block_close") {
            sawClose = true;
            EXPECT_FALSE(e.reason.empty());
        }
    }
    EXPECT_TRUE(sawClose);
    bt.attachJournal(nullptr);
}

TEST(FlightRecorderTest, DumpWritesFile)
{
    BTrace bt(smallConfig());
    EventJournal j;
    bt.attachJournal(&j);
    for (uint64_t s = 1; s <= 50; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 40));

    FlightRecorderOptions fo;
    fo.path = testing::TempDir() + "btrace_flight_test.json";
    FlightRecorder fr(bt, &j, fo);
    EXPECT_EQ(fr.dumps(), 0u);
    ASSERT_TRUE(fr.dump("explicit"));
    EXPECT_EQ(fr.dumps(), 1u);

    std::ifstream in(fo.path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const ParsedFlightBundle p = parseFlightBundle(ss.str());
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(p.trigger, "explicit");
    bt.attachJournal(nullptr);

    // Empty path: render-only recorder refuses to dump.
    FlightRecorder disabled(bt, &j, FlightRecorderOptions{});
    EXPECT_FALSE(disabled.dump("nope"));
}

/**
 * A bundle with its clock- and host-dependent fields replaced: tsc
 * (steady clock), tid (per-process thread ordinal) and resident_bytes
 * (mincore) differ run to run; everything else is fixed by the
 * single-threaded write sequence.
 */
std::string
normalizedBundle(const std::string &bundle)
{
    static const std::string keys[] = {"\"tsc\":", "\"tid\":",
                                       "\"resident_bytes\":"};
    // Copy the bundle, writing "N" for the digits after each key.
    std::string out;
    out.reserve(bundle.size());
    std::size_t i = 0;
    while (i < bundle.size()) {
        const std::string *key = nullptr;
        for (const std::string &k : keys)
            if (bundle.compare(i, k.size(), k) == 0)
                key = &k;
        if (key == nullptr) {
            out += bundle[i++];
            continue;
        }
        out += *key;
        i += key->size();
        while (i < bundle.size() && bundle[i] >= '0' && bundle[i] <= '9')
            ++i;
        out += 'N';
    }
    return out;
}

TEST(FlightRecorderTest, BundleGoldenBytesWithJournal)
{
    BTrace bt(smallConfig());
    EventJournal j;
    bt.attachJournal(&j);
    for (uint64_t s = 1; s <= 9; ++s)
        ASSERT_TRUE(bt.record(uint16_t(s % 2), 1, s, 40));

    FlightRecorderOptions fo;
    fo.lastN = 3;
    FlightRecorder fr(bt, &j, fo);
    EXPECT_EQ(normalizedBundle(fr.render("golden \"q\" \\ end")),
              R"({"bundle":"btrace-flight-v1",)"
              R"("trigger":"golden \"q\" \\ end",)"
              R"("counters":{"fast_allocs":9,"boundary_fills":2,)"
              R"("stale_allocs":0,"advances":4,"skips":0,)"
              R"("closes":0,"lock_races":0,"core_races":0,)"
              R"("would_block":0,"dummy_bytes":96,"resizes":0,)"
              R"("shared_rmws":42,"leases":0,"lease_entries":0,)"
              R"("leased_outstanding":0},"gauges":{"head_position":8,)"
              R"("capacity_bytes":4096,"resident_bytes":N,)"
              R"("blocks_complete":2,"blocks_open":2,)"
              R"("blocks_incomplete":0},"slots":[{"slot":0,)"
              R"("alloc_rnd":1,"alloc_pos":272,"conf_rnd":1,)"
              R"("conf_pos":256,"state":"complete"},{"slot":1,)"
              R"("alloc_rnd":1,"alloc_pos":272,"conf_rnd":1,)"
              R"("conf_pos":256,"state":"complete"},{"slot":2,)"
              R"("alloc_rnd":1,"alloc_pos":144,"conf_rnd":1,)"
              R"("conf_pos":144,"state":"open"},{"slot":3,)"
              R"("alloc_rnd":1,"alloc_pos":80,"conf_rnd":1,)"
              R"("conf_pos":80,"state":"open"}],"journal_emitted":6,)"
              R"("journal":[{"kind":"block_open","tsc":N,)"
              R"("seq":4,"tid":N,"core":1,"block":6,"arg":0},)"
              R"({"kind":"block_close","reason":"full","tsc":N,)"
              R"("seq":5,"tid":N,"core":0,"block":5,"arg":0},)"
              R"({"kind":"block_open","tsc":N,"seq":6,"tid":N,)"
              R"("core":0,"block":7,"arg":0}]})");
    bt.attachJournal(nullptr);
}

TEST(FlightRecorderTest, BundleGoldenBytesWithoutJournal)
{
    BTrace bt(smallConfig());
    for (uint64_t s = 1; s <= 3; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 40));

    FlightRecorder fr(bt, nullptr, FlightRecorderOptions{});
    EXPECT_EQ(normalizedBundle(fr.render("end_of_run")),
              R"({"bundle":"btrace-flight-v1","trigger":"end_of_run",)"
              R"("counters":{"fast_allocs":3,"boundary_fills":0,)"
              R"("stale_allocs":0,"advances":1,"skips":0,)"
              R"("closes":0,"lock_races":0,"core_races":0,)"
              R"("would_block":0,"dummy_bytes":0,"resizes":0,)"
              R"("shared_rmws":11,"leases":0,"lease_entries":0,)"
              R"("leased_outstanding":0},"gauges":{"head_position":5,)"
              R"("capacity_bytes":4096,"resident_bytes":N,)"
              R"("blocks_complete":3,"blocks_open":1,)"
              R"("blocks_incomplete":0},"slots":[{"slot":0,)"
              R"("alloc_rnd":1,"alloc_pos":208,"conf_rnd":1,)"
              R"("conf_pos":208,"state":"open"},{"slot":1,)"
              R"("alloc_rnd":0,"alloc_pos":256,"conf_rnd":0,)"
              R"("conf_pos":256,"state":"complete"},{"slot":2,)"
              R"("alloc_rnd":0,"alloc_pos":256,"conf_rnd":0,)"
              R"("conf_pos":256,"state":"complete"},{"slot":3,)"
              R"("alloc_rnd":0,"alloc_pos":256,"conf_rnd":0,)"
              R"("conf_pos":256,"state":"complete"}],"journal_emitted":0,)"
              R"("journal":[]})");
}

TEST(FlightRecorderTest, TriggerControlCharsRoundTrip)
{
    BTrace bt(smallConfig());
    FlightRecorder fr(bt, nullptr, FlightRecorderOptions{});
    const std::string trigger = "watchdog:\tline\nbreak\rcr\x01soh";
    const ParsedFlightBundle p = parseFlightBundle(fr.render(trigger));
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(p.trigger, trigger);
}

TEST(FlightRecorderTest, ParseRejectsGarbage)
{
    EXPECT_FALSE(parseFlightBundle("").ok);
    EXPECT_FALSE(parseFlightBundle("not json").ok);
    EXPECT_FALSE(parseFlightBundle("{\"bundle\":\"other\"}").ok);
    EXPECT_FALSE(parseFlightBundle("{\"trigger\":\"x\"}").ok);
}

#if defined(BTRACE_ENABLE_TEST_HOOKS)

// Non-blocking write attempt (same helper as the watchdog-live tests):
// record() spins on Retry by design, so a wedged-tracer test must
// surface the Retry instead of looping on it.
bool
tryWrite(BTrace &bt, uint64_t stamp)
{
    ScopedWrite w(bt, 1, 2, 40, ScopedWrite::NonBlocking);
    if (!w.ok())
        return false;
    w.fill(stamp);
    w.commit();
    return true;
}

// Acceptance scenario: a resize parked at ResizePostFreeze wedges the
// tracer (every advancement bounces off the frozen bit). A flight
// bundle captured in that state must contain the ResizeFreeze journal
// event — the one record that explains why nothing advances.
TEST(FlightRecorderLive, WedgedResizeBundleContainsResizeFreeze)
{
    BTraceConfig cfg;
    cfg.blockSize = 256;
    cfg.cores = 2;
    cfg.activeBlocks = 2;
    cfg.numBlocks = 4;
    cfg.maxBlocks = 8;

    BTrace bt(cfg);
    EventJournal j;
    bt.attachJournal(&j);

    PreemptionInjector inj;
    inj.armPark(YieldPoint::ResizePostFreeze);
    std::thread rz([&bt]() { bt.resize(8); });
    ASSERT_TRUE(inj.awaitParked(YieldPoint::ResizePostFreeze));

    // Drive producers into the wedge: writes bounce once the core's
    // block fills and advancement is frozen.
    uint64_t stamp = 1;
    bool sawFailure = false;
    for (int i = 0; i < 200000 && !sawFailure; ++i)
        sawFailure = !tryWrite(bt, ++stamp);
    ASSERT_TRUE(sawFailure) << "tracer never reached WouldBlock";

    FlightRecorderOptions fo;
    fo.path = testing::TempDir() + "btrace_flight_wedge.json";
    FlightRecorder fr(bt, &j, fo);
    ASSERT_TRUE(fr.dump("watchdog:stalled_advancement"));

    std::ifstream in(fo.path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const ParsedFlightBundle p = parseFlightBundle(ss.str());
    ASSERT_TRUE(p.ok) << p.error;

    bool sawFreeze = false, sawEnd = false;
    for (const auto &e : p.journal) {
        if (e.kind == "resize_freeze") sawFreeze = true;
        if (e.kind == "resize_end") sawEnd = true;
    }
    EXPECT_TRUE(sawFreeze)
        << "bundle journal lacks the resize_freeze event";
    EXPECT_FALSE(sawEnd) << "resize should still be parked";

    inj.release(YieldPoint::ResizePostFreeze);
    rz.join();
    ASSERT_TRUE(bt.record(1, 2, ++stamp, 40));
    bt.attachJournal(nullptr);
}

#endif // BTRACE_ENABLE_TEST_HOOKS

} // namespace
