/**
 * @file
 * The one JSON writer: commas and nesting, escapes for keys and
 * strings, integers at their limits, the double formats, and the
 * bounded sink that truncates at its capacity instead of overrunning.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/json_writer.h"

namespace btrace {
namespace {

TEST(JsonWriter, TracksCommasAndNesting)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject().field("a", 1).key("b").beginArray();
    w.value(true).value("x").beginObject().endObject();
    w.beginArray().endArray().endArray();
    w.key("c").beginObject().field("d", false).endObject().endObject();
    EXPECT_EQ(out, R"({"a":1,"b":[true,"x",{},[]],"c":{"d":false}})");
}

TEST(JsonWriter, EscapesKeysAndStrings)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.field("k\"\\", std::string("a\n\t\r\x01\x1f\x7f" "b", 8));
    w.endObject();
    EXPECT_EQ(out, "{\"k\\\"\\\\\":\"a\\n\\t\\r\\u0001\\u001f\x7f" "b\"}");
}

TEST(JsonWriter, IntegersAtTheirLimits)
{
    std::string out;
    JsonWriter w(out);
    w.beginArray().value(uint64_t(UINT64_MAX)).value(int64_t(INT64_MIN));
    w.value(0).value(-5).value(uint16_t(7)).endArray();
    EXPECT_EQ(out,
              "[18446744073709551615,-9223372036854775808,0,-5,7]");
}

TEST(JsonWriter, DoubleFormats)
{
    std::string out;
    JsonWriter w(out);
    w.beginArray().fixed(2.5, 3).sig(1.0 / 3.0, 6);
    w.metric(10.0).metric(-4.0).metric(-0.0).metric(2.5);
    w.metric(1.0 / 3.0).metric(1e20).metric(std::nan(""));
    w.thousandths(1500, 7).thousandths(42, 0).endArray();
    EXPECT_EQ(out, "[2.500,0.333333,10,-4,0,2.5,0.3333333333,1e+20,NaN,"
                   "1500.007,42.000]");
}

TEST(JsonWriter, BoundedSinkTruncatesAtCapacity)
{
    char buf[16];
    std::fill(buf, buf + sizeof(buf), '#');
    JsonWriter w(buf, 8);
    w.beginObject().field("long_key", "long value").endObject();
    EXPECT_EQ(w.size(), 8u);
    EXPECT_EQ(std::string(buf, 8), R"({"long_k)");
    EXPECT_EQ(buf[8], '#');  // nothing written past the capacity
}

} // namespace
} // namespace btrace
