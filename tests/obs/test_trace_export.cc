/**
 * @file
 * Chrome trace-event export of the lifecycle journal: structural JSON
 * validity (parsed with the repo's own reader), open→close pairing
 * into complete ("X") events, instants for skips / lifecycle events /
 * watchdog trips, process-name metadata, leftover-open handling, and
 * the composition entry point in analysis/export.h.
 */

#include <gtest/gtest.h>

#include <vector>

#include "analysis/export.h"
#include "common/json_writer.h"
#include "obs/json_reader.h"
#include "obs/journal.h"
#include "obs/trace_export.h"

using namespace btrace;

namespace {

JournalRecord
rec(JournalEventKind kind, uint64_t tsc, uint64_t block, uint64_t arg,
    uint16_t core = 0, uint32_t tid = 1)
{
    JournalRecord r;
    r.kind = kind;
    r.tsc = tsc;
    r.block = block;
    r.arg = arg;
    r.core = core;
    r.tid = tid;
    return r;
}

/** Parse a full trace document; fatal-asserts validity. */
JsonValue
parseDoc(const std::string &json)
{
    JsonValue root;
    JsonReader reader(json);
    EXPECT_TRUE(reader.parse(root)) << reader.error << "\n" << json;
    EXPECT_EQ(root.type, JsonValue::Type::Object);
    return root;
}

const JsonValue &
eventsOf(const JsonValue &root)
{
    const JsonValue *ev = root.find("traceEvents");
    EXPECT_NE(ev, nullptr);
    EXPECT_EQ(ev->type, JsonValue::Type::Array);
    return *ev;
}

double
numField(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    EXPECT_NE(v, nullptr) << "missing " << key;
    return v != nullptr ? v->num : 0.0;
}

std::string
strField(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    EXPECT_NE(v, nullptr) << "missing " << key;
    return v != nullptr ? v->str : std::string();
}

TEST(TraceExport, EmptyJournalYieldsEmptyDocument)
{
    std::string events;
    JsonWriter w(events);
    w.beginArray();
    writeJournalTraceEvents(w, {});
    w.endArray();
    EXPECT_EQ(events, "[]");
    const JsonValue root = parseDoc(exportJournalChromeJson({}));
    EXPECT_TRUE(eventsOf(root).arr.empty());
}

TEST(TraceExport, OpenCloseBecomesCompleteEvent)
{
    std::vector<JournalRecord> recs;
    recs.push_back(rec(JournalEventKind::BlockOpen, 1000, 4, 0, 2));
    recs.push_back(
        rec(JournalEventKind::BlockClose, 5000, 4,
            uint64_t(BlockCloseReason::Full), 2));

    TraceEventExportOptions opt;
    opt.activeBlocks = 4;
    const JsonValue root = parseDoc(exportJournalChromeJson(recs, opt));
    const JsonValue &events = eventsOf(root);

    // Two metadata events + one complete event.
    const JsonValue *x = nullptr;
    int metadata = 0;
    for (const JsonValue &e : events.arr) {
        const std::string ph = strField(e, "ph");
        if (ph == "M") {
            ++metadata;
            EXPECT_EQ(strField(e, "name"), "process_name");
        } else if (ph == "X") {
            ASSERT_EQ(x, nullptr) << "more than one complete event";
            x = &e;
        }
    }
    EXPECT_EQ(metadata, 2);
    ASSERT_NE(x, nullptr);
    EXPECT_EQ(strField(*x, "name"), "block 4 (full)");
    EXPECT_EQ(numField(*x, "pid"), 1.0);
    EXPECT_EQ(numField(*x, "tid"), 0.0);  // track = 4 mod activeBlocks
    EXPECT_EQ(numField(*x, "ts"), 0.0);   // rebased to earliest record
    EXPECT_EQ(numField(*x, "dur"), 4.0);  // 4000 ns = 4 us
    const JsonValue *args = x->find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(numField(*args, "block"), 4.0);
    EXPECT_EQ(strField(*args, "reason"), "full");
}

TEST(TraceExport, UnmatchedCloseAndLeftoverOpen)
{
    std::vector<JournalRecord> recs;
    // Close whose open was overwritten by the ring: degrades to an
    // instant. Open that never closes: becomes an X to the last tsc.
    recs.push_back(rec(JournalEventKind::BlockClose, 100, 9,
                       uint64_t(BlockCloseReason::Straggler)));
    recs.push_back(rec(JournalEventKind::BlockOpen, 200, 10, 0));
    recs.push_back(rec(JournalEventKind::ConsumerPass, 5200, 0, 7));

    const JsonValue root = parseDoc(exportJournalChromeJson(recs));
    bool sawOrphanClose = false, sawOpenSpan = false;
    for (const JsonValue &e : eventsOf(root).arr) {
        const std::string ph = strField(e, "ph");
        if (ph == "i" && strField(e, "name") == "block 9 (straggler)")
            sawOrphanClose = true;
        if (ph == "X" && strField(e, "name") == "block 10 (open)") {
            sawOpenSpan = true;
            // Spans from its open to the last record: 5000 ns = 5 us.
            EXPECT_EQ(numField(e, "dur"), 5.0);
            const JsonValue *args = e.find("args");
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(numField(*args, "unclosed"), 1.0);
        }
    }
    EXPECT_TRUE(sawOrphanClose);
    EXPECT_TRUE(sawOpenSpan);
}

TEST(TraceExport, InstantKindsAndScopes)
{
    std::vector<JournalRecord> recs;
    recs.push_back(rec(JournalEventKind::BlockSkip, 100, 6, 240, 1));
    recs.push_back(rec(JournalEventKind::LeaseGrant, 200, 2, 224, 1, 7));
    recs.push_back(rec(JournalEventKind::ResizeFreeze, 300, 12, 4,
                       EventJournal::kNoCore));
    recs.push_back(rec(JournalEventKind::WatchdogTrip, 400, 0, 3,
                       EventJournal::kNoCore, 9));

    const JsonValue root = parseDoc(exportJournalChromeJson(recs));
    bool sawSkip = false, sawLease = false, sawFreeze = false,
         sawTrip = false;
    for (const JsonValue &e : eventsOf(root).arr) {
        if (strField(e, "ph") != "i")
            continue;
        const std::string name = strField(e, "name");
        const std::string scope = strField(e, "s");
        if (name == "skip") {
            sawSkip = true;
            EXPECT_EQ(numField(e, "pid"), 1.0);  // on the block track
            EXPECT_EQ(scope, "t");
            const JsonValue *args = e.find("args");
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(numField(*args, "confirmed_pos"), 240.0);
        } else if (name == "lease_grant") {
            sawLease = true;
            EXPECT_EQ(numField(e, "pid"), 2.0);
            EXPECT_EQ(numField(e, "tid"), 7.0);
        } else if (name == "resize_freeze") {
            sawFreeze = true;
            EXPECT_EQ(numField(e, "pid"), 2.0);
        } else if (name == "watchdog_trip") {
            sawTrip = true;
            EXPECT_EQ(scope, "g");  // global scope marker
            const JsonValue *args = e.find("args");
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(numField(*args, "health_kind"), 3.0);
        }
    }
    EXPECT_TRUE(sawSkip);
    EXPECT_TRUE(sawLease);
    EXPECT_TRUE(sawFreeze);
    EXPECT_TRUE(sawTrip);
}

TEST(TraceExport, EveryEventHasRequiredFields)
{
    std::vector<JournalRecord> recs;
    for (uint64_t i = 0; i < 8; ++i) {
        recs.push_back(rec(JournalEventKind::BlockOpen, 100 * i, i, 0));
        recs.push_back(rec(JournalEventKind::BlockClose, 100 * i + 50, i,
                           uint64_t(BlockCloseReason::Full)));
    }
    recs.push_back(rec(JournalEventKind::ReclaimStart, 900, 8, 4));
    recs.push_back(rec(JournalEventKind::ReclaimEnd, 950, 8, 4));

    const JsonValue root = parseDoc(exportJournalChromeJson(recs));
    const JsonValue &events = eventsOf(root);
    ASSERT_FALSE(events.arr.empty());
    for (const JsonValue &e : events.arr) {
        const std::string ph = strField(e, "ph");
        EXPECT_FALSE(strField(e, "name").empty());
        ASSERT_NE(e.find("pid"), nullptr);
        ASSERT_NE(e.find("tid"), nullptr);
        if (ph == "M")
            continue;
        ASSERT_NE(e.find("ts"), nullptr);
        EXPECT_GE(numField(e, "ts"), 0.0);
        if (ph == "X") {
            EXPECT_GE(numField(e, "dur"), 0.0);
        }
        if (ph == "i") {
            const std::string scope = strField(e, "s");
            EXPECT_TRUE(scope == "t" || scope == "p" || scope == "g")
                << scope;
        }
    }
}

/** Every event shape the journal exporter writes, in one journal. */
std::vector<JournalRecord>
everyShape()
{
    std::vector<JournalRecord> recs;
    recs.push_back(rec(JournalEventKind::BlockClose, 1500, 9,
                       uint64_t(BlockCloseReason::Straggler)));
    recs.push_back(rec(JournalEventKind::BlockOpen, 2000, 5, 0, 1));
    recs.push_back(rec(JournalEventKind::BlockSkip, 2250, 6, 240, 1));
    recs.push_back(rec(JournalEventKind::LeaseGrant, 2600, 2, 224, 1, 7));
    recs.push_back(rec(JournalEventKind::BlockClose, 3125, 5,
                       uint64_t(BlockCloseReason::Full), 1));
    recs.push_back(rec(JournalEventKind::BlockOpen, 4000, 10, 0));
    recs.push_back(rec(JournalEventKind::WatchdogTrip, 5001, 0, 2,
                       EventJournal::kNoCore, 9));
    return recs;
}

TEST(TraceExport, JournalGoldenBytes)
{
    TraceEventExportOptions opt;
    opt.activeBlocks = 4;
    EXPECT_EQ(exportJournalChromeJson(everyShape(), opt),
              R"j({"traceEvents":[{"name":"process_name","ph":"M",)j"
              R"j("pid":1,"tid":0,"args":{"name":"BTrace blocks"}},)j"
              R"j({"name":"process_name","ph":"M","pid":2,)j"
              R"j("tid":0,"args":{"name":"BTrace lifecycle"}},)j"
              R"j({"name":"block 9 (straggler)","ph":"i","cat":"btrace",)j"
              R"j("pid":1,"tid":1,"ts":0.000,"s":"t","args":{"block":9}},)j"
              R"j({"name":"skip","ph":"i","cat":"btrace","pid":1,)j"
              R"j("tid":2,"ts":0.750,"s":"t","args":{"block":6,)j"
              R"j("confirmed_pos":240}},{"name":"lease_grant",)j"
              R"j("ph":"i","cat":"btrace","pid":2,"tid":7,)j"
              R"j("ts":1.100,"s":"t","args":{"block":2,"arg":224}},)j"
              R"j({"name":"block 5 (full)","ph":"X","cat":"btrace",)j"
              R"j("pid":1,"tid":1,"ts":0.500,"dur":1.125,"args":{"block":5,)j"
              R"j("reason":"full"}},{"name":"watchdog_trip",)j"
              R"j("ph":"i","cat":"btrace","pid":2,"tid":9,)j"
              R"j("ts":3.501,"s":"g","args":{"health_kind":2}},)j"
              R"j({"name":"block 10 (open)","ph":"X","cat":"btrace",)j"
              R"j("pid":1,"tid":2,"ts":2.500,"dur":1.001,"args":{"block":10,)j"
              R"j("unclosed":1}}]})j");
    EXPECT_EQ(exportJournalChromeJson({}),
              R"({"traceEvents":[]})");
}

TEST(TraceExport, ComposedGoldenBytes)
{
    TracepointRegistry reg;
    reg.registerTracepoint("sched");  // id 1
    ExportOptions eopt;
    eopt.registry = &reg;
    std::vector<DumpEntry> entries;
    entries.push_back(DumpEntry{7, 48, 1, 11, 1, true});
    entries.push_back(DumpEntry{3, 40, 0, 10, 0, true});

    EXPECT_EQ(exportChromeJsonWithJournal(entries, everyShape(), eopt),
              R"j({"traceEvents":[{"name":"uncategorized",)j"
              R"j("ph":"i","s":"t","ts":3.000,"pid":0,"tid":10,)j"
              R"j("args":{"stamp":3,"size":40}},{"name":"sched",)j"
              R"j("ph":"i","s":"t","ts":7.000,"pid":1,"tid":11,)j"
              R"j("args":{"stamp":7,"size":48}},{"name":"process_name",)j"
              R"j("ph":"M","pid":1,"tid":0,"args":{"name":"BTrace blocks"}},)j"
              R"j({"name":"process_name","ph":"M","pid":2,)j"
              R"j("tid":0,"args":{"name":"BTrace lifecycle"}},)j"
              R"j({"name":"block 9 (straggler)","ph":"i","cat":"btrace",)j"
              R"j("pid":1,"tid":9,"ts":0.000,"s":"t","args":{"block":9}},)j"
              R"j({"name":"skip","ph":"i","cat":"btrace","pid":1,)j"
              R"j("tid":6,"ts":0.750,"s":"t","args":{"block":6,)j"
              R"j("confirmed_pos":240}},{"name":"lease_grant",)j"
              R"j("ph":"i","cat":"btrace","pid":2,"tid":7,)j"
              R"j("ts":1.100,"s":"t","args":{"block":2,"arg":224}},)j"
              R"j({"name":"block 5 (full)","ph":"X","cat":"btrace",)j"
              R"j("pid":1,"tid":5,"ts":0.500,"dur":1.125,"args":{"block":5,)j"
              R"j("reason":"full"}},{"name":"watchdog_trip",)j"
              R"j("ph":"i","cat":"btrace","pid":2,"tid":9,)j"
              R"j("ts":3.501,"s":"g","args":{"health_kind":2}},)j"
              R"j({"name":"block 10 (open)","ph":"X","cat":"btrace",)j"
              R"j("pid":1,"tid":10,"ts":2.500,"dur":1.001,)j"
              R"j("args":{"block":10,"unclosed":1}}]})j");
    EXPECT_EQ(exportChromeJsonWithJournal({}, everyShape(), eopt),
              exportJournalChromeJson(everyShape()));
    EXPECT_EQ(exportChromeJsonWithJournal(entries, {}, eopt),
              R"({"traceEvents":[{"name":"uncategorized",)"
              R"("ph":"i","s":"t","ts":3.000,"pid":0,"tid":10,)"
              R"("args":{"stamp":3,"size":40}},{"name":"sched",)"
              R"("ph":"i","s":"t","ts":7.000,"pid":1,"tid":11,)"
              R"("args":{"stamp":7,"size":48}}]})");
    EXPECT_EQ(exportChromeJsonWithJournal({}, {}, eopt),
              R"({"traceEvents":[]})");
}

TEST(TraceExport, ComposesWithEntryExport)
{
    std::vector<DumpEntry> entries;
    DumpEntry de;
    de.stamp = 5;
    de.core = 0;
    de.thread = 1;
    de.category = 0;
    de.size = 40;
    entries.push_back(de);

    std::vector<JournalRecord> recs;
    recs.push_back(rec(JournalEventKind::BlockOpen, 100, 0, 0));
    recs.push_back(rec(JournalEventKind::BlockClose, 300, 0,
                       uint64_t(BlockCloseReason::Consumer)));

    const std::string json =
        exportChromeJsonWithJournal(entries, recs);
    const JsonValue root = parseDoc(json);
    const JsonValue &events = eventsOf(root);

    bool sawEntry = false, sawBlock = false;
    for (const JsonValue &e : events.arr) {
        if (strField(e, "ph") == "i" && e.find("args") != nullptr &&
            e.find("args")->find("stamp") != nullptr)
            sawEntry = true;
        if (strField(e, "ph") == "X" &&
            strField(e, "name") == "block 0 (consumer)")
            sawBlock = true;
    }
    EXPECT_TRUE(sawEntry) << json;
    EXPECT_TRUE(sawBlock) << json;

    // Each side empty still yields a valid document.
    EXPECT_NE(exportChromeJsonWithJournal({}, recs).find("block 0"),
              std::string::npos);
    const JsonValue entriesOnly =
        parseDoc(exportChromeJsonWithJournal(entries, {}));
    EXPECT_EQ(eventsOf(entriesOnly).arr.size(), 1u);
}

} // namespace
