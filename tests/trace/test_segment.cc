/**
 * @file
 * Tests for the v2 segment codec (trace/trace_file.h) and the offline
 * segment aggregator (trace/segment_stats.h): header round trips and
 * in-place updates, v1 back-compat, truncation mid-record and
 * mid-header, mixed-version directories, rotation gaps left by
 * retention, declared-vs-scanned reconciliation, and the stable JSON
 * document btrace_stats emits.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json_reader.h"
#include "trace/segment_stats.h"
#include "trace/trace_file.h"

namespace btrace {
namespace {

std::vector<DumpEntry>
makeEntries(uint64_t n, uint64_t stamp0 = 1, uint32_t size = 40,
            uint32_t thread = 1, uint16_t category = 0)
{
    std::vector<DumpEntry> out;
    for (uint64_t k = 0; k < n; ++k)
        out.push_back(
            DumpEntry{stamp0 + k, size, 0, thread, category, true});
    return out;
}

/** Write a v2 segment: header, records, header updated in place. */
void
writeV2Segment(const std::string &path,
               const std::vector<DumpEntry> &entries,
               SegmentHeaderV2 hdr = {}, bool cleanClose = true)
{
    const int fd =
        ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(writeSegmentHeaderV2(fd, hdr).ok());
    ASSERT_TRUE(appendTraceRecords(fd, entries).ok());
    for (const DumpEntry &e : entries)
        hdr.noteEntry(e);
    if (cleanClose)
        hdr.flags |= SegmentHeaderV2::kCleanClose;
    ASSERT_TRUE(updateSegmentHeaderV2(fd, hdr).ok());
    ::close(fd);
}

void
writeV1Segment(const std::string &path,
               const std::vector<DumpEntry> &entries)
{
    const int fd =
        ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(writeTraceFileHeader(fd).ok());
    ASSERT_TRUE(appendTraceRecords(fd, entries).ok());
    ::close(fd);
}

class SegmentDirTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = testing::TempDir() + "segstats_" +
              std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name();
        ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
    }

    void
    TearDown() override
    {
        for (uint64_t i = 0; i < 16; ++i)
            std::remove(seg(i).c_str());
        ::rmdir(dir.c_str());
    }

    std::string
    seg(uint64_t index) const
    {
        char name[32];
        std::snprintf(name, sizeof(name), "segment-%06llu.btrace",
                      static_cast<unsigned long long>(index));
        return dir + "/" + name;
    }

    std::string dir;
};

TEST(SegmentCodec, V2HeaderRoundTripsWithProvenance)
{
    const std::string path = testing::TempDir() + "v2_round.btrace";
    SegmentHeaderV2 hdr;
    hdr.writerPid = 4242;
    hdr.attachGeneration = 7;
    hdr.firstDrainUnixNs = 111;
    hdr.lastDrainUnixNs = 222;
    hdr.overwrittenPositions = 3;
    hdr.skippedBlocks = 1;
    writeV2Segment(path, makeEntries(10, 100, 32, 9, 2), hdr);

    auto seg = readSegment(path, /*strict=*/true);
    ASSERT_TRUE(seg.ok()) << seg.status().toString();
    const SegmentInfo &info = seg.value();
    EXPECT_EQ(info.version, 2u);
    EXPECT_FALSE(info.torn);
    ASSERT_EQ(info.entries.size(), 10u);
    EXPECT_EQ(info.entries.front().stamp, 100u);
    EXPECT_EQ(info.entries.front().category, 2u);
    EXPECT_EQ(info.entries.front().thread, 9u);

    const SegmentHeaderV2 &h = info.header;
    EXPECT_EQ(h.headerBytes, sizeof(SegmentHeaderV2));
    EXPECT_EQ(h.writerPid, 4242u);
    EXPECT_EQ(h.attachGeneration, 7u);
    EXPECT_EQ(h.firstDrainUnixNs, 111u);
    EXPECT_EQ(h.lastDrainUnixNs, 222u);
    EXPECT_EQ(h.recordCount, 10u);
    EXPECT_EQ(h.payloadBytes, 320u);
    EXPECT_EQ(h.minStamp, 100u);
    EXPECT_EQ(h.maxStamp, 109u);
    EXPECT_EQ(h.categoryRecords[2], 10u);
    EXPECT_EQ(h.categoryBytes[2], 320u);
    EXPECT_EQ(h.overwrittenPositions, 3u);
    EXPECT_EQ(h.skippedBlocks, 1u);
    EXPECT_NE(h.flags & SegmentHeaderV2::kCleanClose, 0u);
    std::remove(path.c_str());
}

TEST(SegmentCodec, HighCategoriesPoolIntoOther)
{
    SegmentHeaderV2 hdr;
    hdr.noteEntry(DumpEntry{1, 16, 0, 1, 5, true});
    hdr.noteEntry(
        DumpEntry{2, 24, 0, 1, uint16_t(kSegmentCategorySlots), true});
    hdr.noteEntry(DumpEntry{3, 8, 0, 1, 999, true});
    EXPECT_EQ(hdr.categoryRecords[5], 1u);
    EXPECT_EQ(hdr.otherCategoryRecords, 2u);
    EXPECT_EQ(hdr.otherCategoryBytes, 32u);
    EXPECT_EQ(hdr.recordCount, 3u);
}

TEST(SegmentCodec, V1ReadableThroughReadSegment)
{
    const std::string path = testing::TempDir() + "v1_compat.btrace";
    writeV1Segment(path, makeEntries(6));

    auto seg = readSegment(path, /*strict=*/true);
    ASSERT_TRUE(seg.ok());
    EXPECT_EQ(seg.value().version, 1u);
    EXPECT_EQ(seg.value().entries.size(), 6u);
    // The v1 wrappers still work on both versions.
    auto viaV1 = readTraceFile(path);
    ASSERT_TRUE(viaV1.ok());
    EXPECT_EQ(viaV1.value().size(), 6u);
    std::remove(path.c_str());
}

TEST(SegmentCodec, V2ReadableThroughV1Wrappers)
{
    const std::string path = testing::TempDir() + "v2_wrap.btrace";
    writeV2Segment(path, makeEntries(4));
    auto r = readTraceFile(path);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().size(), 4u);
    std::remove(path.c_str());
}

TEST(SegmentCodec, ZeroRecordV2SegmentDecodes)
{
    const std::string path = testing::TempDir() + "v2_empty.btrace";
    writeV2Segment(path, {});
    auto seg = readSegment(path, /*strict=*/true);
    ASSERT_TRUE(seg.ok());
    EXPECT_EQ(seg.value().version, 2u);
    EXPECT_TRUE(seg.value().entries.empty());
    EXPECT_EQ(seg.value().header.recordCount, 0u);
    EXPECT_EQ(seg.value().header.minStamp, UINT64_MAX);
    std::remove(path.c_str());
}

TEST(SegmentCodec, TruncationMidRecordStrictVsLossy)
{
    const std::string path = testing::TempDir() + "v2_torn.btrace";
    writeV2Segment(path, makeEntries(5));
    const off_t full = off_t(sizeof(uint64_t)) +
                       off_t(sizeof(SegmentHeaderV2)) +
                       off_t(5 * sizeof(TraceDiskRecord));
    ASSERT_EQ(::truncate(path.c_str(), full - 10), 0);

    auto strict = readSegment(path, /*strict=*/true);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::Corruption);

    auto lossy = readSegment(path, /*strict=*/false);
    ASSERT_TRUE(lossy.ok());
    EXPECT_TRUE(lossy.value().torn);
    EXPECT_EQ(lossy.value().tornTailBytes,
              sizeof(TraceDiskRecord) - 10);
    EXPECT_EQ(lossy.value().entries.size(), 4u);
    std::remove(path.c_str());
}

// readSegment reads records in chunks whose size is not a multiple of
// the record size. A segment spanning several chunks, whose torn tail
// is itself cut by a chunk boundary, must still decode to exactly its
// complete records plus the torn byte count (lossy), or Corruption
// (strict).
TEST(SegmentCodec, TornTailAcrossChunkBoundaryStrictVsLossy)
{
    constexpr std::size_t rec = sizeof(TraceDiskRecord);
    std::size_t chunks = 2;
    while (chunks * kSegmentReadChunkBytes % rec == 0)
        ++chunks;
    const std::size_t boundary = chunks * kSegmentReadChunkBytes;
    const std::size_t whole = boundary / rec;  // records before the cut one
    const std::size_t tail = rec - 1;          // bytes left of the cut one
    ASSERT_LT(boundary - whole * rec, tail);   // the boundary falls inside

    std::vector<DumpEntry> entries;
    for (std::size_t k = 0; k <= whole; ++k)
        entries.push_back(DumpEntry{
            k + 1, uint32_t(24 + 8 * (k % 30)), uint16_t(k % 4),
            uint32_t(k % 7 + 1), uint16_t(k % 20), k % 5 != 0});
    const std::string path = testing::TempDir() + "v2_chunks.btrace";
    writeV2Segment(path, entries);

    const auto sameEntries = [&](const SegmentInfo &info,
                                 std::size_t n) {
        ASSERT_EQ(info.entries.size(), n);
        for (std::size_t k = 0; k < n; ++k) {
            const DumpEntry &a = info.entries[k], &b = entries[k];
            ASSERT_EQ(a.stamp, b.stamp) << k;
            ASSERT_EQ(a.size, b.size) << k;
            ASSERT_EQ(a.core, b.core) << k;
            ASSERT_EQ(a.thread, b.thread) << k;
            ASSERT_EQ(a.category, b.category) << k;
            ASSERT_EQ(a.payloadOk, b.payloadOk) << k;
        }
    };
    auto full = readSegment(path, /*strict=*/true);
    ASSERT_TRUE(full.ok()) << full.status().toString();
    EXPECT_FALSE(full.value().torn);
    sameEntries(full.value(), whole + 1);

    const off_t records = off_t(sizeof(uint64_t)) +
                          off_t(sizeof(SegmentHeaderV2));
    ASSERT_EQ(::truncate(path.c_str(),
                         records + off_t(whole * rec + tail)),
              0);
    auto strict = readSegment(path, /*strict=*/true);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::Corruption);

    auto lossy = readSegment(path, /*strict=*/false);
    ASSERT_TRUE(lossy.ok()) << lossy.status().toString();
    EXPECT_TRUE(lossy.value().torn);
    EXPECT_EQ(lossy.value().tornTailBytes, tail);
    sameEntries(lossy.value(), whole);
    std::remove(path.c_str());
}

TEST(SegmentCodec, TruncationMidHeaderIsCorruptionBothModes)
{
    const std::string path = testing::TempDir() + "v2_cut.btrace";
    writeV2Segment(path, makeEntries(3));
    ASSERT_EQ(::truncate(path.c_str(),
                         off_t(sizeof(uint64_t)) +
                             off_t(sizeof(SegmentHeaderV2) / 2)),
              0);
    for (const bool strict : {true, false}) {
        auto r = readSegment(path, strict);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::Corruption);
    }
    std::remove(path.c_str());
}

TEST(SegmentCodec, FutureLargerHeaderIsSkipped)
{
    // A reader from this build must skip a bigger future header using
    // headerBytes alone.
    const std::string path = testing::TempDir() + "v2_future.btrace";
    const uint32_t extra = 64;
    {
        const int fd =
            ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
        ASSERT_GE(fd, 0);
        SegmentHeaderV2 hdr;
        ASSERT_TRUE(writeSegmentHeaderV2(fd, hdr).ok());
        // Grow the declared header and pad the file accordingly.
        hdr.headerBytes = uint32_t(sizeof(SegmentHeaderV2)) + extra;
        hdr.recordCount = 2;
        ASSERT_EQ(::pwrite(fd, &hdr, sizeof(hdr), sizeof(uint64_t)),
                  ssize_t(sizeof(hdr)));
        const std::vector<char> pad(extra, 0);
        ASSERT_EQ(::write(fd, pad.data(), pad.size()),
                  ssize_t(pad.size()));
        ASSERT_TRUE(appendTraceRecords(fd, makeEntries(2)).ok());
        ::close(fd);
    }
    auto seg = readSegment(path, /*strict=*/true);
    ASSERT_TRUE(seg.ok()) << seg.status().toString();
    EXPECT_EQ(seg.value().entries.size(), 2u);
    EXPECT_EQ(seg.value().header.recordCount, 2u);
    std::remove(path.c_str());
}

TEST_F(SegmentDirTest, ListsSortedAndHandlesSingleFile)
{
    writeV2Segment(seg(2), makeEntries(1));
    writeV2Segment(seg(0), makeEntries(1));
    writeV2Segment(seg(1), makeEntries(1));
    std::ofstream(dir + "/unrelated.txt") << "x";

    auto files = listSegmentFiles(dir);
    ASSERT_TRUE(files.ok());
    ASSERT_EQ(files.value().size(), 3u);
    EXPECT_EQ(files.value()[0].index, 0u);
    EXPECT_EQ(files.value()[2].index, 2u);
    EXPECT_TRUE(files.value()[0].indexed);

    auto one = listSegmentFiles(seg(1));
    ASSERT_TRUE(one.ok());
    ASSERT_EQ(one.value().size(), 1u);
    EXPECT_FALSE(one.value()[0].indexed);

    auto missing = listSegmentFiles(dir + "/nope");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::NotFound);
    std::remove((dir + "/unrelated.txt").c_str());
}

TEST_F(SegmentDirTest, MixedVersionDirectoryAggregates)
{
    writeV1Segment(seg(0), makeEntries(5, 1));
    writeV2Segment(seg(1), makeEntries(7, 100));

    SegmentAggregator agg;
    ASSERT_TRUE(agg.addAll(dir).ok());
    const SegmentDirStats &st = agg.stats();
    EXPECT_EQ(st.segmentsScanned, 2u);
    EXPECT_EQ(st.v1Segments, 1u);
    EXPECT_EQ(st.v2Segments, 1u);
    EXPECT_EQ(st.records, 12u);
    EXPECT_EQ(st.payloadBytes, 12u * 40u);
    EXPECT_EQ(st.minStamp, 1u);
    EXPECT_EQ(st.maxStamp, 106u);
    // Only the v2 segment declares totals; v1 declares nothing, and
    // that asymmetry must not read as a mismatch of the v2 headers.
    EXPECT_EQ(st.declaredRecords, 7u);
    EXPECT_TRUE(st.headerScanMismatch());  // 7 declared != 12 scanned
}

TEST_F(SegmentDirTest, RetentionGapIsReported)
{
    // Indices 0, 1, 4 on disk: retention unlinked 2 and 3.
    writeV2Segment(seg(0), makeEntries(2, 1));
    writeV2Segment(seg(1), makeEntries(2, 10));
    writeV2Segment(seg(4), makeEntries(2, 20));

    SegmentAggregator agg;
    ASSERT_TRUE(agg.addAll(dir).ok());
    EXPECT_EQ(agg.stats().rotationGaps, 1u);
    EXPECT_EQ(agg.stats().missingIndices, 2u);
    EXPECT_EQ(agg.stats().records, 6u);
}

TEST_F(SegmentDirTest, DeclaredVsScannedMismatchSurfaces)
{
    // Header declares 5 records but only 3 landed — the shape a
    // SIGKILL between append and header rewrite cannot leave (the
    // header undercounts), but a torn tail or lost append can.
    SegmentHeaderV2 hdr;
    for (const DumpEntry &e : makeEntries(5))
        hdr.noteEntry(e);
    {
        const int fd =
            ::open(seg(0).c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
        ASSERT_GE(fd, 0);
        SegmentHeaderV2 init;
        ASSERT_TRUE(writeSegmentHeaderV2(fd, init).ok());
        ASSERT_TRUE(appendTraceRecords(fd, makeEntries(3)).ok());
        ASSERT_TRUE(updateSegmentHeaderV2(fd, hdr).ok());
        ::close(fd);
    }
    SegmentAggregator agg;
    ASSERT_TRUE(agg.addAll(dir).ok());
    EXPECT_EQ(agg.stats().declaredRecords, 5u);
    EXPECT_EQ(agg.stats().records, 3u);
    EXPECT_TRUE(agg.stats().headerScanMismatch());
}

TEST_F(SegmentDirTest, UnreadableSegmentCountedLossyFailsStrict)
{
    writeV2Segment(seg(0), makeEntries(3));
    std::ofstream(seg(1), std::ios::binary) << "garbage";

    SegmentAggregator lossy;
    Status s = lossy.addAll(dir, /*strict=*/false);
    EXPECT_FALSE(s.ok());  // the error is reported...
    EXPECT_EQ(lossy.stats().segmentsScanned, 2u);  // ...and counted
    EXPECT_EQ(lossy.stats().unreadableSegments, 1u);
    EXPECT_EQ(lossy.stats().records, 3u);
}

TEST_F(SegmentDirTest, PerProducerPerCategoryAndBuckets)
{
    // Producer 11 in category 1 with logical stamps; producer 22 in
    // category 2 with wall-clock stamps spread over ~2.5 buckets.
    std::vector<DumpEntry> entries = makeEntries(10, 1, 16, 11, 1);
    const uint64_t base = kWallClockStampFloorNs + 500'000'000ull;
    for (uint64_t k = 0; k < 5; ++k)
        entries.push_back(DumpEntry{base + k * 500'000'000ull, 32, 0,
                                    22, 2, true});
    writeV2Segment(seg(0), entries);

    SegmentAggregator agg(/*bucketSec=*/1.0);
    ASSERT_TRUE(agg.addAll(dir).ok());
    const SegmentDirStats &st = agg.stats();

    ASSERT_EQ(st.producers.size(), 2u);
    EXPECT_EQ(st.producers.at(11).records, 10u);
    EXPECT_EQ(st.producers.at(11).payloadBytes, 160u);
    EXPECT_EQ(st.producers.at(22).records, 5u);
    EXPECT_EQ(st.producers.at(22).minStamp, base);

    ASSERT_EQ(st.categories.size(), 2u);
    EXPECT_EQ(st.categories.at(1).records, 10u);
    EXPECT_EQ(st.categories.at(2).payloadBytes, 160u);

    // Only wall-clock stamps land in throughput buckets.
    EXPECT_EQ(st.wallStampedRecords, 5u);
    uint64_t bucketed = 0;
    for (const auto &kv : st.buckets) {
        EXPECT_EQ(kv.first % 1'000'000'000ull, 0u);
        bucketed += kv.second.records;
    }
    EXPECT_EQ(bucketed, 5u);
    EXPECT_GE(st.buckets.size(), 2u);
}

TEST_F(SegmentDirTest, JsonDocumentIsStableAndTruncates)
{
    // 4 categories, topN 2 — the document must say it truncated.
    std::vector<DumpEntry> entries;
    for (uint16_t c = 0; c < 4; ++c)
        for (const DumpEntry &e : makeEntries(2 + c, 1, 16, 1, c))
            entries.push_back(e);
    writeV2Segment(seg(0), entries);

    SegmentAggregator agg;
    ASSERT_TRUE(agg.addAll(dir).ok());
    const std::string doc = agg.renderJson(/*topN=*/2);

    EXPECT_NE(doc.find("\"btrace_stats_version\":1"),
              std::string::npos);
    EXPECT_NE(doc.find("\"categories_truncated\":true"),
              std::string::npos);
    EXPECT_NE(doc.find("\"producers_truncated\":false"),
              std::string::npos);
    EXPECT_NE(doc.find("\"records\":14"), std::string::npos);
    EXPECT_NE(doc.find("\"header_scan_mismatch\":false"),
              std::string::npos);
    // Top-2 categories by records are 3 (5 recs) and 2 (4 recs).
    EXPECT_NE(doc.find("{\"category\":3,\"records\":5"),
              std::string::npos);
    EXPECT_EQ(doc.find("{\"category\":0,"), std::string::npos);

    const std::string table = agg.renderTable(2);
    EXPECT_NE(table.find("retention quality"), std::string::npos);
    EXPECT_NE(table.find("top categories (2 of 4)"),
              std::string::npos);
}

/** @p doc parsed by the repo's own reader; a parse failure fails. */
JsonValue
parseJson(const std::string &doc)
{
    JsonValue v;
    JsonReader r(doc);
    EXPECT_TRUE(r.parse(v)) << r.error;
    return v;
}

TEST_F(SegmentDirTest, JsonDocumentParsesWithJsonReader)
{
    // btrace_stats --json output carries booleans (the *_truncated
    // flags, header_scan_mismatch): the reader must take them.
    std::vector<DumpEntry> entries;
    for (uint16_t c = 0; c < 4; ++c)
        for (const DumpEntry &e : makeEntries(2 + c, 1, 16, 1, c))
            entries.push_back(e);
    writeV2Segment(seg(0), entries);
    SegmentAggregator agg;
    ASSERT_TRUE(agg.addAll(dir).ok());

    const JsonValue doc = parseJson(agg.renderJson(/*topN=*/2));
    ASSERT_EQ(doc.type, JsonValue::Type::Object);
    const JsonValue *truncated = doc.find("categories_truncated");
    ASSERT_NE(truncated, nullptr);
    EXPECT_EQ(truncated->type, JsonValue::Type::Bool);
    EXPECT_TRUE(truncated->boolean);
    const JsonValue *producers = doc.find("producers_truncated");
    ASSERT_NE(producers, nullptr);
    EXPECT_EQ(producers->type, JsonValue::Type::Bool);
    EXPECT_FALSE(producers->boolean);
    const JsonValue *retention = doc.find("retention");
    ASSERT_NE(retention, nullptr);
    const JsonValue *mismatch = retention->find("header_scan_mismatch");
    ASSERT_NE(mismatch, nullptr);
    EXPECT_EQ(mismatch->type, JsonValue::Type::Bool);
    EXPECT_FALSE(mismatch->boolean);
    const JsonValue *totals = doc.find("totals");
    ASSERT_NE(totals, nullptr);
    ASSERT_NE(totals->find("records"), nullptr);
    EXPECT_EQ(totals->find("records")->num, 14.0);
}

TEST_F(SegmentDirTest, JsonGoldenBytes)
{
    // A v2 segment with drain provenance and loss counters (three
    // producers, three categories, wall-clock stamps over two buckets)
    // and a torn v1 segment of logical stamps after a rotation gap.
    SegmentHeaderV2 hdr;
    hdr.writerPid = 77;
    hdr.firstDrainUnixNs = kWallClockStampFloorNs;
    hdr.lastDrainUnixNs = kWallClockStampFloorNs + 3'000'000'000ull;
    hdr.overwrittenPositions = 4;
    hdr.skippedBlocks = 1;
    hdr.abandonedBlocks = 2;
    std::vector<DumpEntry> wall;
    for (uint64_t k = 0; k < 6; ++k)
        wall.push_back(DumpEntry{kWallClockStampFloorNs +
                                     k * 400'000'000ull,
                                 uint32_t(24 + 8 * k), 0,
                                 uint32_t(100 + k % 3), uint16_t(k % 3),
                                 true});
    writeV2Segment(seg(0), wall, hdr);
    writeV1Segment(seg(3), makeEntries(3, 5, 40, 9, 7));
    {
        const int fd = ::open(seg(3).c_str(), O_WRONLY | O_APPEND);
        ASSERT_GE(fd, 0);
        const char tail[5] = {1, 2, 3, 4, 5};
        ASSERT_EQ(::write(fd, tail, sizeof(tail)), 5);
        ::close(fd);
    }

    SegmentAggregator agg;
    ASSERT_TRUE(agg.addAll(dir).ok());
    const std::string top10 = agg.renderJson(10);
    const std::string top1 = agg.renderJson(1);
    const std::string empty = SegmentAggregator().renderJson();
    // Golden bytes, and every document also reads back.
    for (const std::string *doc : {&top10, &top1, &empty})
        EXPECT_EQ(parseJson(*doc).type, JsonValue::Type::Object);
    EXPECT_EQ(top10,
              R"({"btrace_stats_version":1,"segments":{"scanned":2,)"
              R"("v1":1,"v2":1,"torn":1,"dirty":0,"unreadable":0,)"
              R"("rotation_gaps":1,"missing_indices":2},)"
              R"("totals":{"records":9,"payload_bytes":384,)"
              R"("wall_stamped_records":6,"min_stamp":5,)"
              R"("max_stamp":1500000002000000000,)"
              R"("first_drain_unix_ns":1500000000000000000,)"
              R"("last_drain_unix_ns":1500000003000000000},)"
              R"("retention":{"declared_records":6,)"
              R"("declared_payload_bytes":264,"overwritten_positions":4,)"
              R"("skipped_blocks":1,"abandoned_blocks":2,)"
              R"("torn_tail_bytes":5,"header_scan_mismatch":true,)"
              R"("retained_ratio":0.642857},"window_sec":3,)"
              R"("categories":[{"category":7,"records":3,)"
              R"("payload_bytes":120,"share":0.333333},{"category":0,)"
              R"("records":2,"payload_bytes":72,"share":0.222222},)"
              R"({"category":1,"records":2,"payload_bytes":88,)"
              R"("share":0.222222},{"category":2,"records":2,)"
              R"("payload_bytes":104,"share":0.222222}],)"
              R"("categories_truncated":false,"producers":[{"producer":9,)"
              R"("records":3,"payload_bytes":120,"rate_per_sec":1},)"
              R"({"producer":100,"records":2,"payload_bytes":72,)"
              R"("rate_per_sec":0.666667},{"producer":101,)"
              R"("records":2,"payload_bytes":88,"rate_per_sec":0.666667},)"
              R"({"producer":102,"records":2,"payload_bytes":104,)"
              R"("rate_per_sec":0.666667}],"producers_truncated":false,)"
              R"("buckets":[{"start_ns":1500000000000000000,)"
              R"("records":3,"payload_bytes":96},)"
              R"({"start_ns":1500000001000000000,"records":2,)"
              R"("payload_bytes":104},{"start_ns":1500000002000000000,)"
              R"("records":1,"payload_bytes":64}]})");
    EXPECT_EQ(top1,
              R"({"btrace_stats_version":1,"segments":{"scanned":2,)"
              R"("v1":1,"v2":1,"torn":1,"dirty":0,"unreadable":0,)"
              R"("rotation_gaps":1,"missing_indices":2},)"
              R"("totals":{"records":9,"payload_bytes":384,)"
              R"("wall_stamped_records":6,"min_stamp":5,)"
              R"("max_stamp":1500000002000000000,)"
              R"("first_drain_unix_ns":1500000000000000000,)"
              R"("last_drain_unix_ns":1500000003000000000},)"
              R"("retention":{"declared_records":6,)"
              R"("declared_payload_bytes":264,"overwritten_positions":4,)"
              R"("skipped_blocks":1,"abandoned_blocks":2,)"
              R"("torn_tail_bytes":5,"header_scan_mismatch":true,)"
              R"("retained_ratio":0.642857},"window_sec":3,)"
              R"("categories":[{"category":7,"records":3,)"
              R"("payload_bytes":120,"share":0.333333}],)"
              R"("categories_truncated":true,"producers":[{"producer":9,)"
              R"("records":3,"payload_bytes":120,"rate_per_sec":1}],)"
              R"("producers_truncated":true,)"
              R"("buckets":[{"start_ns":1500000000000000000,)"
              R"("records":3,"payload_bytes":96},)"
              R"({"start_ns":1500000001000000000,"records":2,)"
              R"("payload_bytes":104},{"start_ns":1500000002000000000,)"
              R"("records":1,"payload_bytes":64}]})");
    EXPECT_EQ(empty,
              R"({"btrace_stats_version":1,"segments":{"scanned":0,)"
              R"("v1":0,"v2":0,"torn":0,"dirty":0,"unreadable":0,)"
              R"("rotation_gaps":0,"missing_indices":0},)"
              R"("totals":{"records":0,"payload_bytes":0,)"
              R"("wall_stamped_records":0,"min_stamp":0,"max_stamp":0,)"
              R"("first_drain_unix_ns":0,"last_drain_unix_ns":0},)"
              R"("retention":{"declared_records":0,)"
              R"("declared_payload_bytes":0,"overwritten_positions":0,)"
              R"("skipped_blocks":0,"abandoned_blocks":0,)"
              R"("torn_tail_bytes":0,"header_scan_mismatch":false,)"
              R"("retained_ratio":1},"window_sec":0,"categories":[],)"
              R"("categories_truncated":false,"producers":[],)"
              R"("producers_truncated":false,"buckets":[]})");
}

TEST_F(SegmentDirTest, DirtySegmentWithoutCleanClose)
{
    writeV2Segment(seg(0), makeEntries(2), {}, /*cleanClose=*/false);
    SegmentAggregator agg;
    ASSERT_TRUE(agg.addAll(dir).ok());
    EXPECT_EQ(agg.stats().dirtySegments, 1u);
}

} // namespace
} // namespace btrace
