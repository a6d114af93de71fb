/** @file Unit tests for the trace exporters. */

#include <gtest/gtest.h>

#include "analysis/export.h"
#include "obs/json_reader.h"
#include "trace/trace_file.h"

namespace btrace {
namespace {

std::vector<DumpEntry>
sampleEntries()
{
    return {
        DumpEntry{3, 40, 1, 11, 2, true},
        DumpEntry{1, 48, 0, 10, 1, true},
        DumpEntry{2, 56, 0, 12, 0, true},
    };
}

TEST(ExportChromeJson, WellFormedAndSorted)
{
    TracepointRegistry reg;
    reg.registerTracepoint("sched");   // id 1
    reg.registerTracepoint("freq");    // id 2
    ExportOptions opt;
    opt.registry = &reg;
    const std::string json = exportChromeJson(sampleEntries(), opt);

    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"sched\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"freq\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"uncategorized\""), std::string::npos);
    // Sorted: stamp 1 appears before stamp 3.
    EXPECT_LT(json.find("\"stamp\":1"), json.find("\"stamp\":3"));
    // Cores become pids.
    EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

TEST(ExportChromeJson, EmptyInput)
{
    EXPECT_EQ(exportChromeJson({}), "{\"traceEvents\":[]}");
}

TEST(ExportChromeJson, ControlCharNameRoundTrips)
{
    TracepointRegistry reg;
    const std::string name = "tab\there\nline\rcr\x01soh";
    reg.registerTracepoint(name);  // id 1
    ExportOptions opt;
    opt.registry = &reg;
    const std::string json =
        exportChromeJson({DumpEntry{1, 40, 0, 10, 1, true}}, opt);

    JsonValue root;
    JsonReader reader(json);
    ASSERT_TRUE(reader.parse(root)) << reader.error << "\n" << json;
    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->arr.size(), 1u);
    const JsonValue *got = events->arr[0].find("name");
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->str, name);
}

TEST(ExportChromeJson, QuoteAndBackslashInNameAreEscaped)
{
    TracepointRegistry reg;
    reg.registerTracepoint("net\"rx\\q");  // id 1
    ExportOptions opt;
    opt.registry = &reg;
    const std::string json =
        exportChromeJson({DumpEntry{1, 40, 0, 10, 1, true}}, opt);

    JsonValue root;
    JsonReader reader(json);
    ASSERT_TRUE(reader.parse(root)) << reader.error << "\n" << json;
    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->arr.size(), 1u);
    EXPECT_EQ(events->arr[0].find("name")->str, "net\"rx\\q");
}

TEST(ExportChromeJson, WallClockStampsConvertNanosecondsExactly)
{
    // btrace_producer --wallclock-stamps writes CLOCK_REALTIME ns; two
    // records 1 ms apart must sit 1000 us apart, to the nanosecond.
    const uint64_t t = kWallClockStampFloorNs + 123'456'789ull;
    const std::string json = exportChromeJson(
        {DumpEntry{t, 40, 0, 10, 0, true},
         DumpEntry{t + 1'000'000ull, 40, 0, 10, 0, true}});
    EXPECT_NE(json.find("\"ts\":1500000000123456.789,"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"ts\":1500000000124456.789,"), std::string::npos)
        << json;
    // Logical stamps keep one microsecond per stamp.
    EXPECT_NE(exportChromeJson({DumpEntry{42, 40, 0, 10, 0, true}})
                  .find("\"ts\":42.000,"),
              std::string::npos);
}

TEST(ExportCsv, HeaderAndRows)
{
    TracepointRegistry reg;
    reg.registerTracepoint("sched");
    ExportOptions opt;
    opt.registry = &reg;
    const std::string csv = exportCsv(sampleEntries(), opt);

    EXPECT_EQ(csv.find("stamp,core,thread,category,category_name,size"),
              0u);
    EXPECT_NE(csv.find("1,0,10,1,sched,48"), std::string::npos);
    EXPECT_NE(csv.find("2,0,12,0,uncategorized,56"), std::string::npos);
    // 1 header + 3 rows.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(ExportCsv, NamesWithCommaQuoteOrNewlineAreQuoted)
{
    TracepointRegistry reg;
    reg.registerTracepoint("net,rx");       // id 1
    reg.registerTracepoint("say \"hi\"");   // id 2
    reg.registerTracepoint("two\nlines");   // id 3
    ExportOptions opt;
    opt.registry = &reg;
    const std::string csv = exportCsv({DumpEntry{1, 40, 0, 10, 1, true},
                                       DumpEntry{2, 40, 0, 10, 2, true},
                                       DumpEntry{3, 40, 0, 10, 3, true}},
                                      opt);
    EXPECT_EQ(csv,
              "stamp,core,thread,category,category_name,size\n"
              "1,0,10,1,\"net,rx\",40\n"
              "2,0,10,2,\"say \"\"hi\"\"\",40\n"
              "3,0,10,3,\"two\nlines\",40\n");
}

TEST(SummarizeDump, RollsUpCoresAndCategories)
{
    TracepointRegistry reg;
    reg.registerTracepoint("sched");
    reg.registerTracepoint("freq");
    Dump dump;
    dump.entries = sampleEntries();
    dump.skippedBlocks = 2;
    ExportOptions opt;
    opt.registry = &reg;
    const std::string text = summarizeDump(dump, opt);

    EXPECT_NE(text.find("3 entries"), std::string::npos);
    EXPECT_NE(text.find("stamps 1..3"), std::string::npos);
    EXPECT_NE(text.find("2 skipped"), std::string::npos);
    EXPECT_NE(text.find("per core:"), std::string::npos);
    EXPECT_NE(text.find("per category:"), std::string::npos);
    EXPECT_NE(text.find("sched"), std::string::npos);
}

TEST(SummarizeDump, EmptyDumpSafe)
{
    const std::string text = summarizeDump(Dump{});
    EXPECT_NE(text.find("0 entries"), std::string::npos);
}

} // namespace
} // namespace btrace
