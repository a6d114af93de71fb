/** @file Unit tests for asynchronous trace persistence. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <thread>

#include "core/btrace.h"
#include "core/persister.h"

namespace btrace {
namespace {

BTraceConfig
smallConfig()
{
    BTraceConfig cfg;
    cfg.blockSize = 1024;
    cfg.numBlocks = 64;
    cfg.activeBlocks = 8;
    cfg.cores = 2;
    return cfg;
}

class PersisterTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path = ::testing::TempDir() + "btrace_persist_" +
               std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               ".bin";
    }

    void TearDown() override { std::remove(path.c_str()); }

    std::string path;
};

TEST_F(PersisterTest, QuiescentRoundTrip)
{
    BTrace bt(smallConfig());
    for (uint64_t s = 1; s <= 100; ++s)
        ASSERT_TRUE(bt.record(uint16_t(s % 2), 1, s, 32, uint16_t(s % 5)));
    {
        TracePersister persister(bt, path);
        // Destructor stops + flushes, closing active blocks.
    }
    const auto loaded = TracePersister::load(path);
    ASSERT_EQ(loaded.size(), 100u);
    std::set<uint64_t> stamps;
    for (const DumpEntry &e : loaded) {
        EXPECT_TRUE(e.payloadOk);
        EXPECT_TRUE(stamps.insert(e.stamp).second);
        EXPECT_EQ(e.core, e.stamp % 2);
        EXPECT_EQ(e.category, e.stamp % 5);
    }
}

TEST_F(PersisterTest, CapturesMoreThanBufferCapacity)
{
    // The whole point of persist mode: the file outlives buffer wraps.
    BTrace bt(smallConfig());  // 64 KB buffer
    PersisterOptions opt;
    opt.pollIntervalSec = 0.0005;
    TracePersister persister(bt, path, opt);

    const uint64_t total = 20000;  // ~1.1 MB of entries
    for (uint64_t s = 1; s <= total; ++s) {
        ASSERT_TRUE(bt.record(uint16_t(s % 2), 1, s, 32));
        if (s % 500 == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    persister.stop();

    const auto loaded = TracePersister::load(path);
    EXPECT_EQ(loaded.size(), persister.persistedEntries());
    // Far more than the in-memory buffer could hold (~1100 entries).
    EXPECT_GT(loaded.size(), 5000u);
    std::set<uint64_t> stamps;
    for (const DumpEntry &e : loaded)
        EXPECT_TRUE(stamps.insert(e.stamp).second) << e.stamp;
}

TEST_F(PersisterTest, StopIsIdempotent)
{
    BTrace bt(smallConfig());
    ASSERT_TRUE(bt.record(0, 1, 1, 32));
    TracePersister persister(bt, path);
    persister.stop();
    persister.stop();
    const auto loaded = TracePersister::load(path);
    EXPECT_EQ(loaded.size(), 1u);
}

TEST_F(PersisterTest, StopReadsPastALeaseStillOpen)
{
    // The final poll is the last one: a lease still open on core 0
    // must not keep core 1's later blocks out of the file.
    BTrace bt(smallConfig());
    PersisterOptions opt;
    opt.pollIntervalSec = 0.001;
    TracePersister persister(bt, path, opt);

    Lease l = bt.lease(0, 1, 16, 4);
    ASSERT_TRUE(l.ok());
    WriteTicket t = l.allocate(16);
    ASSERT_TRUE(t.ok());
    writeNormal(t.dst, 1000, 0, 1, 0, 16);
    l.confirm(t);
    constexpr uint64_t kCore1 = 100;  // several blocks
    for (uint64_t s = 1; s <= kCore1; ++s)
        ASSERT_TRUE(bt.record(1, 2, s, 32));
    persister.stop();
    l.close();

    EXPECT_EQ(TracePersister::load(path).size(), kCore1);
}

TEST_F(PersisterTest, ConcurrentProducersWhilePersisting)
{
    BTrace bt(smallConfig());
    PersisterOptions opt;
    opt.pollIntervalSec = 0.0005;
    opt.closeActive = true;
    TracePersister persister(bt, path, opt);

    std::atomic<uint64_t> stamp{0};
    std::vector<std::thread> workers;
    for (unsigned c = 0; c < 2; ++c) {
        workers.emplace_back([&, c]() {
            for (int i = 0; i < 15000; ++i) {
                const uint64_t s =
                    stamp.fetch_add(1, std::memory_order_relaxed) + 1;
                bt.record(uint16_t(c), c, s, 32);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    persister.stop();

    const auto loaded = TracePersister::load(path);
    std::set<uint64_t> stamps;
    for (const DumpEntry &e : loaded) {
        EXPECT_TRUE(e.payloadOk);
        EXPECT_LE(e.stamp, stamp.load());
        EXPECT_TRUE(stamps.insert(e.stamp).second);
    }
    EXPECT_GT(loaded.size(), 1000u);
}

TEST_F(PersisterTest, LoadRejectsGarbage)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a trace", f);
    std::fclose(f);
    EXPECT_EXIT(TracePersister::load(path),
                ::testing::ExitedWithCode(1), "not a btrace");
}

} // namespace
} // namespace btrace
