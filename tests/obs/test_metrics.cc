/**
 * @file
 * Metrics registry, counter snapshots, derived gauges, and both
 * exporters (Prometheus text, JSON-lines round-trip).
 */

#include <gtest/gtest.h>

#include <string>

#include "core/btrace.h"
#include "obs/btrace_metrics.h"
#include "obs/export.h"
#include "obs/metrics.h"

using namespace btrace;

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

TEST(CountersSnapshot, DiffIsFieldWise)
{
    BTraceCounters::Snapshot a, b;
    a.fastAllocs = 100;
    a.advances = 7;
    a.dummyBytes = 512;
    b.fastAllocs = 160;
    b.advances = 9;
    b.dummyBytes = 520;
    b.wouldBlock = 3;
    const BTraceCounters::Snapshot d = b - a;
    EXPECT_EQ(d.fastAllocs, 60u);
    EXPECT_EQ(d.advances, 2u);
    EXPECT_EQ(d.dummyBytes, 8u);
    EXPECT_EQ(d.wouldBlock, 3u);
    EXPECT_EQ(d.skips, 0u);
}

TEST(CountersSnapshot, TracksLiveTracer)
{
    BTrace bt(smallConfig());
    const BTraceCounters::Snapshot before = bt.countersSnapshot();
    for (uint64_t s = 1; s <= 50; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 40));
    const BTraceCounters::Snapshot d = bt.countersSnapshot() - before;
    EXPECT_EQ(d.fastAllocs, 50u);
    EXPECT_GT(d.sharedRmws, 0u);
}

TEST(MetricsRegistry, CollectEvaluatesCallbacks)
{
    MetricsRegistry reg;
    double level = 1.5;
    reg.addCounter("c_total", "a counter", []() { return 42.0; });
    reg.addGauge("g", "a gauge", [&level]() { return level; });
    EXPECT_EQ(reg.metricCount(), 2u);

    auto c = reg.collect();
    ASSERT_EQ(c.metrics.size(), 2u);
    EXPECT_EQ(c.metrics[0].name, "c_total");
    EXPECT_EQ(c.metrics[0].kind, MetricKind::Counter);
    EXPECT_DOUBLE_EQ(c.metrics[0].value, 42.0);
    EXPECT_EQ(c.metrics[1].kind, MetricKind::Gauge);
    EXPECT_DOUBLE_EQ(c.metrics[1].value, 1.5);

    level = 9.0;  // re-collect sees the new value
    EXPECT_DOUBLE_EQ(reg.collect().metrics[1].value, 9.0);
}

TEST(MetricsRegistry, HistogramSummaries)
{
    MetricsRegistry reg;
    ConcurrentHistogram h(1);
    for (int i = 1; i <= 1000; ++i)
        h.add(uint64_t(i));
    reg.addHistogram("lat_ns", "latency", &h);
    auto c = reg.collect();
    ASSERT_EQ(c.histograms.size(), 1u);
    EXPECT_EQ(c.histograms[0].count, 1000u);
    EXPECT_GT(c.histograms[0].p50, 400u);
    EXPECT_LE(c.histograms[0].p50, 500u);
    EXPECT_GE(c.histograms[0].p99, 900u);
    EXPECT_GE(c.histograms[0].max, 930u);
}

TEST(BTraceObsTest, DerivedGauges)
{
    // advances x blockSize bytes opened; headers + dummies are the
    // overhead. Synthetic snapshot: 10 blocks of 4096, 1000 dummy
    // bytes.
    BTraceCounters::Snapshot s;
    s.advances = 10;
    s.dummyBytes = 1000;
    const double eff = BTraceObs::effectivityRatio(s, 4096);
    const double expected =
        1.0 - (1000.0 + 10.0 * EntryLayout::blockHeaderBytes) / 40960.0;
    EXPECT_NEAR(eff, expected, 1e-12);
    EXPECT_NEAR(BTraceObs::dummyOverheadFraction(s, 4096),
                1000.0 / 40960.0, 1e-12);

    // No advancement yet: defined as fully effective, zero overhead.
    BTraceCounters::Snapshot zero;
    EXPECT_DOUBLE_EQ(BTraceObs::effectivityRatio(zero, 4096), 1.0);
    EXPECT_DOUBLE_EQ(BTraceObs::dummyOverheadFraction(zero, 4096), 0.0);
}

TEST(BTraceObsTest, RegistryReflectsTracer)
{
    BTrace bt(smallConfig());
    BTraceObs mx(bt);

    for (uint64_t s = 1; s <= 200; ++s)
        ASSERT_TRUE(bt.record(uint16_t(s % 2), 1, s, 40));

    const auto c = mx.registry().collect();
    double fast = -1, eff = -1, head = -1;
    for (const MetricValue &m : c.metrics) {
        if (m.name == "btrace_fast_allocs_total") fast = m.value;
        if (m.name == "btrace_effectivity_ratio") eff = m.value;
        if (m.name == "btrace_head_position") head = m.value;
    }
    EXPECT_DOUBLE_EQ(fast, 200.0);
    EXPECT_GT(eff, 0.0);
    EXPECT_LE(eff, 1.0);
    EXPECT_GT(head, 0.0);

    // Occupancy gauges partition the active set.
    double complete = 0, open = 0, incomplete = 0;
    for (const MetricValue &m : c.metrics) {
        if (m.name == "btrace_blocks_complete") complete = m.value;
        if (m.name == "btrace_blocks_open") open = m.value;
        if (m.name == "btrace_blocks_incomplete") incomplete = m.value;
    }
    EXPECT_DOUBLE_EQ(complete + open + incomplete,
                     double(smallConfig().activeBlocks));
}

TEST(BTraceObsTest, ConsumerLagGauge)
{
    BTrace bt(smallConfig());
    BTraceObs mx(bt);
    for (uint64_t s = 1; s <= 300; ++s)
        ASSERT_TRUE(bt.record(0, 1, s, 40));
    const auto head = double(bt.headPosition());
    ASSERT_GT(head, 2.0);

    // No consumer noted: lag reports the whole head, but inactive.
    EXPECT_DOUBLE_EQ(mx.consumerLagPositions(), head);
    EXPECT_FALSE(mx.healthInput().consumerActive);

    mx.noteConsumerPosition(uint64_t(head) - 2);
    EXPECT_DOUBLE_EQ(mx.consumerLagPositions(), 2.0);
    EXPECT_TRUE(mx.healthInput().consumerActive);

    // A consumer ahead of the head (stale head read) clamps to zero.
    mx.noteConsumerPosition(uint64_t(head) + 10);
    EXPECT_DOUBLE_EQ(mx.consumerLagPositions(), 0.0);
}

TEST(Exporters, PrometheusTextFormat)
{
    MetricsRegistry reg;
    reg.addCounter("app_events_total", "Events seen",
                   []() { return 12.0; });
    reg.addGauge("app_ratio", "A ratio", []() { return 0.25; });
    ConcurrentHistogram h(1);
    h.add(100);
    reg.addHistogram("app_lat_ns", "Latency", &h);

    const std::string text =
        renderPrometheus(reg.collect(), {{"job", "t\"est"}});
    EXPECT_NE(text.find("# HELP app_events_total Events seen\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE app_events_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("app_events_total{job=\"t\\\"est\"} 12\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE app_ratio gauge\n"), std::string::npos);
    EXPECT_NE(text.find("app_ratio{job=\"t\\\"est\"} 0.25\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE app_lat_ns histogram\n"),
              std::string::npos);
    // One sample of 100 ns lands in the log-linear bucket whose upper
    // bound is 104; the cumulative grid then carries it to +Inf.
    EXPECT_NE(
        text.find("app_lat_ns_bucket{job=\"t\\\"est\",le=\"104\"} 1\n"),
        std::string::npos);
    EXPECT_NE(
        text.find("app_lat_ns_bucket{job=\"t\\\"est\",le=\"+Inf\"} 1\n"),
        std::string::npos);
    EXPECT_NE(text.find("app_lat_ns_sum{job=\"t\\\"est\"} 100\n"),
              std::string::npos);
    EXPECT_NE(text.find("app_lat_ns_count{job=\"t\\\"est\"} 1\n"),
              std::string::npos);
}

TEST(Exporters, JsonLineRoundTrip)
{
    ObsSample s;
    s.seq = 3;
    s.tSec = 1.25;
    s.labels = {{"tracer", "BTrace"}, {"note", "quo\"te\\b"}};
    s.counters = {{"a_total", 10.0}, {"b_total", 2.5}};
    s.rates = {{"a_total", 5.0}};
    s.gauges = {{"ratio", 0.75}};
    HistogramValue h;
    h.name = "lat_ns";
    h.count = 7;
    h.sum = 350;
    h.p50 = 40;
    h.p99 = 90;
    h.p999 = 95;
    h.max = 120;
    s.histograms.push_back(h);
    s.health.push_back(HealthEvent{HealthKind::LeaseStragglerWedge, 3,
                                   "detail \"quoted\""});

    const ParsedObsLine p = parseObsLine(renderJsonLine(s));
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(p.seq, 3u);
    EXPECT_DOUBLE_EQ(p.tSec, 1.25);
    EXPECT_EQ(p.labels.at("tracer"), "BTrace");
    EXPECT_EQ(p.labels.at("note"), "quo\"te\\b");
    EXPECT_DOUBLE_EQ(p.counters.at("a_total"), 10.0);
    EXPECT_DOUBLE_EQ(p.counters.at("b_total"), 2.5);
    EXPECT_DOUBLE_EQ(p.rates.at("a_total"), 5.0);
    EXPECT_DOUBLE_EQ(p.gauges.at("ratio"), 0.75);
    EXPECT_DOUBLE_EQ(p.histograms.at("lat_ns").at("p99"), 90.0);
    EXPECT_DOUBLE_EQ(p.histograms.at("lat_ns").at("sum"), 350.0);
    ASSERT_EQ(p.healthKinds.size(), 1u);
    EXPECT_EQ(p.healthKinds[0], "lease_straggler_wedge");
}

TEST(Exporters, JsonLineGoldenBytes)
{
    // Exact bytes, so a writer change cannot move a comma, a digit or
    // an escape unnoticed: keys and values with quote and backslash,
    // integral / fractional / huge values, a histogram, two health
    // events, and the empty sample.
    ObsSample s;
    s.seq = 42;
    s.tSec = 2.5;
    s.labels = {{"tracer", "BTrace"}, {"k\"ey", "back\\slash \"q\""}};
    s.counters = {{"a_total", 10.0}, {"huge_total", 1e20}};
    s.rates = {{"a_total", 2.5}, {"third", 1.0 / 3.0}, {"neg", -4.0}};
    s.gauges = {{"ratio", 0.75}, {"zero", 0.0}};
    HistogramValue h;
    h.name = "lat_ns";
    h.count = 7;
    h.sum = 350;
    h.p50 = 40;
    h.p99 = 90;
    h.p999 = 95;
    h.max = 120;
    s.histograms.push_back(h);
    s.health.push_back(HealthEvent{HealthKind::StalledAdvancement, 41,
                                   "head stuck at \"12\""});
    s.health.push_back(
        HealthEvent{HealthKind::ConsumerLagGrowth, 42, "lag\\grew"});

    EXPECT_EQ(renderJsonLine(s),
              R"({"seq":42,"t_sec":2.500000,)"
              R"("labels":{"tracer":"BTrace","k\"ey":"back\\slash \"q\""},)"
              R"("counters":{"a_total":10,"huge_total":1e+20},)"
              R"("rates":{"a_total":2.5,"third":0.3333333333,"neg":-4},)"
              R"("gauges":{"ratio":0.75,"zero":0},)"
              R"("histograms":{"lat_ns":{"count":7,"sum":350,"p50":40,)"
              R"("p99":90,"p999":95,"max":120}},)"
              R"("health":[{"kind":"stalled_advancement",)"
              R"("detail":"head stuck at \"12\""},)"
              R"({"kind":"consumer_lag_growth","detail":"lag\\grew"}]})");
    EXPECT_EQ(renderJsonLine(ObsSample{}),
              R"({"seq":0,"t_sec":0.000000,"labels":{},"counters":{},)"
              R"("rates":{},"gauges":{},"histograms":{},"health":[]})");
}

TEST(Exporters, JsonLineLabelControlCharsRoundTrip)
{
    ObsSample s;
    s.labels = {{"note", "tab\there\nnew\rcr\x01soh"}};
    const ParsedObsLine p = parseObsLine(renderJsonLine(s));
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(p.labels.at("note"), "tab\there\nnew\rcr\x01soh");
}

TEST(Exporters, ParseRejectsGarbage)
{
    EXPECT_FALSE(parseObsLine("").ok);
    EXPECT_FALSE(parseObsLine("not json").ok);
    EXPECT_FALSE(parseObsLine("[1,2,3]").ok);
    EXPECT_FALSE(parseObsLine("{\"t_sec\":1.0}").ok);  // missing seq
    EXPECT_FALSE(
        parseObsLine("{\"seq\":1,\"t_sec\":0,\"counters\":{\"x\":\"y\"}}")
            .ok);
}

} // namespace
