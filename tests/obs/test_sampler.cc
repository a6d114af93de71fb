/**
 * @file
 * StatsSampler: snapshot monotonicity while real producer threads
 * hammer the tracer (the TSan target of the obs plane), rate
 * computation, the ring of recent samples, and the JSON-lines file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/btrace.h"
#include "obs/btrace_metrics.h"
#include "obs/journal.h"
#include "obs/profiler.h"
#include "obs/sampler.h"

using namespace btrace;

namespace {

BTraceConfig
mediumConfig(unsigned cores)
{
    BTraceConfig cfg;
    cfg.blockSize = 4096;
    cfg.cores = cores;
    cfg.activeBlocks = 16 * cores;
    cfg.numBlocks = 8 * cfg.activeBlocks;
    return cfg;
}

std::string
tmpPath(const char *name)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return std::string(::testing::TempDir()) + info->name() + "_" + name;
}

TEST(StatsSampler, SampleOnceComputesRates)
{
    MetricsRegistry reg;
    double counter = 0.0;
    reg.addCounter("x_total", "x", [&counter]() { return counter; });
    reg.addGauge("g", "g", []() { return 7.0; });

    StatsSampler sampler(reg, SamplerOptions{});
    const ObsSample s0 = sampler.sampleOnce();
    EXPECT_EQ(s0.seq, 0u);
    EXPECT_TRUE(s0.rates.empty());  // no previous sample yet

    counter = 100.0;
    const ObsSample s1 = sampler.sampleOnce();
    EXPECT_EQ(s1.seq, 1u);
    ASSERT_EQ(s1.rates.size(), 1u);
    EXPECT_EQ(s1.rates[0].first, "x_total");
    EXPECT_GT(s1.rates[0].second, 0.0);  // 100 events over a tiny dt
    ASSERT_EQ(s1.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(s1.gauges[0].second, 7.0);
    EXPECT_GE(s1.tSec, s0.tSec);
}

TEST(StatsSampler, RingIsBounded)
{
    MetricsRegistry reg;
    reg.addCounter("x_total", "x", []() { return 1.0; });
    SamplerOptions opt;
    opt.ringSize = 3;
    StatsSampler sampler(reg, opt);
    for (int i = 0; i < 10; ++i)
        sampler.sampleOnce();
    const auto recent = sampler.recent();
    ASSERT_EQ(recent.size(), 3u);
    EXPECT_EQ(recent[0].seq, 7u);
    EXPECT_EQ(recent[2].seq, 9u);
    EXPECT_EQ(sampler.samplesTaken(), 10u);
}

// The TSan target: a background sampler collecting from a registry
// whose callbacks read live tracer state and an armed CostProfiler's
// histograms, while producer threads write flat out. Every sample
// must be internally consistent: seq strictly increasing, time and
// every counter non-decreasing.
TEST(StatsSampler, MonotoneUnderConcurrentProducers)
{
    constexpr unsigned kThreads = 4;
    BTrace bt(mediumConfig(kThreads));
    CostProfiler profiler;
    bt.attachProfiler(&profiler);
    BTraceObs mx(bt);
    registerProfilerMetrics(mx.registry(), profiler);

    SamplerOptions opt;
    opt.intervalSec = 0.002;
    opt.ringSize = 4096;
    StatsSampler sampler(mx.registry(), opt);
    sampler.setHealthSource([&mx]() { return mx.healthInput(); });
    sampler.start();

    std::atomic<bool> stop{false};
    std::vector<std::thread> producers;
    for (unsigned t = 0; t < kThreads; ++t) {
        producers.emplace_back([&bt, &stop, t]() {
            uint64_t stamp = uint64_t(t) << 40;
            while (!stop.load(std::memory_order_acquire))
                bt.record(uint16_t(t), 100 + t, ++stamp, 48);
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    stop.store(true, std::memory_order_release);
    for (std::thread &t : producers)
        t.join();
    sampler.stop();
    bt.attachProfiler(nullptr);

    const auto samples = sampler.recent();
    ASSERT_GE(samples.size(), 3u);
    for (std::size_t i = 1; i < samples.size(); ++i) {
        const ObsSample &prev = samples[i - 1];
        const ObsSample &cur = samples[i];
        EXPECT_EQ(cur.seq, prev.seq + 1);
        EXPECT_GE(cur.tSec, prev.tSec);
        ASSERT_EQ(cur.counters.size(), prev.counters.size());
        for (std::size_t c = 0; c < cur.counters.size(); ++c) {
            EXPECT_EQ(cur.counters[c].first, prev.counters[c].first);
            EXPECT_GE(cur.counters[c].second, prev.counters[c].second)
                << cur.counters[c].first << " regressed at seq "
                << cur.seq;
        }
        for (const auto &rate : cur.rates)
            EXPECT_GE(rate.second, 0.0);
    }

    // The profiler's phase histograms flowed through into the
    // samples: every record() pays a claim and a publish probe.
    const ObsSample &last = samples.back();
    uint64_t claims = 0, publishes = 0;
    for (const HistogramValue &h : last.histograms) {
        if (h.name == "btrace_profile_claim_ns") claims = h.count;
        if (h.name == "btrace_profile_publish_ns") publishes = h.count;
    }
    EXPECT_GT(claims, 0u);
    EXPECT_GT(publishes, 0u);
    double probes = 0;
    for (const auto &c : last.counters)
        if (c.first == "btrace_profile_samples_total") probes = c.second;
    EXPECT_GE(probes, double(claims + publishes));
}

TEST(StatsSampler, WritesParsableJsonLines)
{
    const std::string path = tmpPath("obs.jsonl");
    MetricsRegistry reg;
    double counter = 0.0;
    reg.addCounter("x_total", "x", [&counter]() { return counter; });
    {
        SamplerOptions opt;
        opt.jsonPath = path;
        opt.labels = {{"test", "sampler"}};
        StatsSampler sampler(reg, opt);
        for (int i = 0; i < 5; ++i) {
            counter += 10.0;
            sampler.sampleOnce();
        }
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    uint64_t expectSeq = 0;
    while (std::getline(in, line)) {
        const ParsedObsLine p = parseObsLine(line);
        ASSERT_TRUE(p.ok) << p.error << " in: " << line;
        EXPECT_EQ(p.seq, expectSeq++);
        EXPECT_EQ(p.labels.at("test"), "sampler");
        EXPECT_DOUBLE_EQ(p.counters.at("x_total"),
                         10.0 * double(expectSeq));
    }
    EXPECT_EQ(expectSeq, 5u);
    std::remove(path.c_str());
}

// Regression: the background loop must schedule on absolute deadlines.
// With a registry whose collection takes ~60% of the period, a
// relative-sleep loop would space samples at (period + cost) and drift
// ~30ms per beat; absolute deadlines keep the median spacing at the
// period. Uses the median so one noisy beat on a loaded CI box cannot
// fail the test.
TEST(SamplerTiming, AbsoluteDeadlineAvoidsDrift)
{
    MetricsRegistry reg;
    reg.addGauge("slow_gauge", "sleeps during collect", []() {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return 1.0;
    });

    SamplerOptions opt;
    opt.intervalSec = 0.05;
    opt.ringSize = 64;
    StatsSampler sampler(reg, opt);
    sampler.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    sampler.stop();

    const auto samples = sampler.recent();
    ASSERT_GE(samples.size(), 6u);
    std::vector<double> diffs;
    // The stop() flush sample is not on the cadence; exclude it.
    for (std::size_t i = 1; i + 1 < samples.size(); ++i)
        diffs.push_back(samples[i].tSec - samples[i - 1].tSec);
    ASSERT_GE(diffs.size(), 4u);
    std::sort(diffs.begin(), diffs.end());
    const double median = diffs[diffs.size() / 2];
    // Relative sleeps would put the median at >= 0.08 (period + cost).
    EXPECT_LT(median, 0.075) << "sampler cadence drifted";
    EXPECT_GE(median, 0.045) << "sampler fired a catch-up burst";
}

// A health source that is mid-evaluation when stop() lands: stop must
// wait it out and join cleanly, never hang or tear down under it.
TEST(SamplerShutdown, StopDuringWatchdogEvaluation)
{
    MetricsRegistry reg;
    reg.addCounter("x_total", "x", []() { return 1.0; });

    std::atomic<int> evaluations{0};
    SamplerOptions opt;
    opt.intervalSec = 0.002;
    StatsSampler sampler(reg, opt);
    sampler.setHealthSource([&evaluations]() {
        evaluations.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return HealthInput{};
    });
    sampler.start();
    // Give the loop time to get inside an evaluation, then stop into it.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    sampler.stop();
    EXPECT_GE(evaluations.load(), 1);
    const uint64_t n = sampler.samplesTaken();
    EXPECT_GE(n, 1u);
    sampler.stop();
    EXPECT_EQ(sampler.samplesTaken(), n);
}

// Two threads racing stop() against each other (plus a late third
// call): exactly one joins the worker, the rest return; a subsequent
// start()/stop() cycle still works. Run under TSan in CI.
TEST(SamplerShutdown, ConcurrentDoubleStopIsIdempotent)
{
    MetricsRegistry reg;
    reg.addCounter("x_total", "x", []() { return 1.0; });
    SamplerOptions opt;
    opt.intervalSec = 0.005;
    StatsSampler sampler(reg, opt);
    sampler.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(15));

    std::thread a([&sampler]() { sampler.stop(); });
    std::thread b([&sampler]() { sampler.stop(); });
    a.join();
    b.join();
    sampler.stop();  // already stopped: no-op

    const uint64_t afterFirst = sampler.samplesTaken();
    EXPECT_GE(afterFirst, 1u);

    // The sampler must be restartable after a clean stop.
    sampler.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    sampler.stop();
    EXPECT_GT(sampler.samplesTaken(), afterFirst);
}

// A deterministic watchdog trip (synthetic health input: wouldBlock
// rises, advances do not) must be mirrored into the attached journal
// as a WatchdogTrip record and handed to the health-event hook.
TEST(SamplerHealth, TripJournalsAndInvokesHook)
{
    MetricsRegistry reg;
    reg.addCounter("x_total", "x", []() { return 1.0; });

    uint64_t fakeWouldBlock = 0;
    SamplerOptions opt;
    opt.watchdog.stallIntervals = 2;
    StatsSampler sampler(reg, opt);
    sampler.setHealthSource([&fakeWouldBlock]() {
        HealthInput in;
        fakeWouldBlock += 100;  // writers bouncing...
        in.ctrs.wouldBlock = fakeWouldBlock;
        in.ctrs.advances = 0;  // ...and nothing advancing
        return in;
    });

    EventJournal journal;
    std::vector<HealthEvent> hooked;
    sampler.setJournal(&journal);
    sampler.setHealthEventHook(
        [&hooked](const HealthEvent &e) { hooked.push_back(e); });

    // Baseline + stallIntervals bad intervals, deterministically.
    for (int i = 0; i < 4; ++i)
        sampler.sampleOnce();

    ASSERT_FALSE(sampler.healthHistory().empty());
    ASSERT_FALSE(hooked.empty());
    EXPECT_EQ(hooked.front().kind, HealthKind::StalledAdvancement);

    bool sawTrip = false;
    for (const JournalRecord &r : journal.snapshot()) {
        if (r.kind == JournalEventKind::WatchdogTrip) {
            sawTrip = true;
            EXPECT_EQ(r.arg, uint64_t(int(
                                 HealthKind::StalledAdvancement)));
            EXPECT_EQ(r.core, EventJournal::kNoCore);
        }
    }
    EXPECT_TRUE(sawTrip);
}

TEST(StatsSampler, BackgroundThreadStartStop)
{
    MetricsRegistry reg;
    reg.addCounter("x_total", "x", []() { return 1.0; });
    SamplerOptions opt;
    opt.intervalSec = 0.005;
    StatsSampler sampler(reg, opt);
    sampler.start();
    sampler.start();  // idempotent
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    sampler.stop();
    const uint64_t n = sampler.samplesTaken();
    EXPECT_GE(n, 1u);  // at least the final flush sample
    sampler.stop();  // idempotent
    EXPECT_EQ(sampler.samplesTaken(), n);
}

} // namespace
