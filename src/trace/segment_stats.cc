#include "trace/segment_stats.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/json_writer.h"

namespace btrace {

namespace {

/** Parse "segment-NNNNNN.btrace"; false when the name is foreign. */
bool
parseSegmentName(const char *name, uint64_t &index)
{
    static const char prefix[] = "segment-";
    static const char suffix[] = ".btrace";
    const std::size_t len = std::strlen(name);
    if (len <= sizeof(prefix) - 1 + sizeof(suffix) - 1)
        return false;
    if (std::strncmp(name, prefix, sizeof(prefix) - 1) != 0)
        return false;
    if (std::strcmp(name + len - (sizeof(suffix) - 1), suffix) != 0)
        return false;
    uint64_t v = 0;
    const char *p = name + sizeof(prefix) - 1;
    const char *end = name + len - (sizeof(suffix) - 1);
    if (p == end)
        return false;
    for (; p != end; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        v = v * 10 + uint64_t(*p - '0');
    }
    index = v;
    return true;
}

} // namespace

Expected<std::vector<SegmentFile>>
listSegmentFiles(const std::string &dirOrFile)
{
    struct stat sb;
    if (::stat(dirOrFile.c_str(), &sb) != 0)
        return errNotFound("no such segment path: " + dirOrFile);
    std::vector<SegmentFile> out;
    if (!S_ISDIR(sb.st_mode)) {
        SegmentFile f;
        f.path = dirOrFile;
        out.push_back(std::move(f));
        return Expected<std::vector<SegmentFile>>(std::move(out));
    }
    DIR *d = ::opendir(dirOrFile.c_str());
    if (d == nullptr)
        return errIo("cannot open segment directory: " + dirOrFile);
    while (struct dirent *e = ::readdir(d)) {
        uint64_t index = 0;
        if (!parseSegmentName(e->d_name, index))
            continue;
        SegmentFile f;
        f.path = dirOrFile + "/" + e->d_name;
        f.index = index;
        f.indexed = true;
        out.push_back(std::move(f));
    }
    ::closedir(d);
    std::sort(out.begin(), out.end(),
              [](const SegmentFile &a, const SegmentFile &b) {
                  return a.index < b.index;
              });
    return Expected<std::vector<SegmentFile>>(std::move(out));
}

SegmentAggregator::SegmentAggregator(double bucketSec)
    : bucketNs(bucketSec > 0.0 ? uint64_t(bucketSec * 1e9) : 0)
{
}

void
SegmentAggregator::recomputeGaps()
{
    std::sort(indices.begin(), indices.end());
    st.rotationGaps = 0;
    st.missingIndices = 0;
    for (std::size_t i = 1; i < indices.size(); ++i) {
        if (indices[i] > indices[i - 1] + 1) {
            ++st.rotationGaps;
            st.missingIndices += indices[i] - indices[i - 1] - 1;
        }
    }
}

void
SegmentAggregator::addSegment(const SegmentInfo &info,
                              const SegmentFile &file)
{
    ++st.segmentsScanned;
    if (file.indexed) {
        indices.push_back(file.index);
        recomputeGaps();
    }
    if (info.version >= 2) {
        ++st.v2Segments;
        const SegmentHeaderV2 &h = info.header;
        if ((h.flags & SegmentHeaderV2::kCleanClose) == 0)
            ++st.dirtySegments;
        st.declaredRecords += h.recordCount;
        st.declaredPayloadBytes += h.payloadBytes;
        st.overwrittenPositions += h.overwrittenPositions;
        st.skippedBlocks += h.skippedBlocks;
        st.abandonedBlocks += h.abandonedBlocks;
        if (h.firstDrainUnixNs != 0 &&
            (st.firstDrainUnixNs == 0 ||
             h.firstDrainUnixNs < st.firstDrainUnixNs))
            st.firstDrainUnixNs = h.firstDrainUnixNs;
        if (h.lastDrainUnixNs > st.lastDrainUnixNs)
            st.lastDrainUnixNs = h.lastDrainUnixNs;
    } else {
        ++st.v1Segments;
    }
    if (info.torn) {
        ++st.tornSegments;
        st.tornTailBytes += info.tornTailBytes;
    }
    for (const DumpEntry &e : info.entries) {
        ++st.records;
        st.payloadBytes += e.size;
        if (e.stamp < st.minStamp)
            st.minStamp = e.stamp;
        if (e.stamp > st.maxStamp)
            st.maxStamp = e.stamp;
        CategoryStats &c = st.categories[e.category];
        ++c.records;
        c.payloadBytes += e.size;
        ProducerStats &p = st.producers[e.thread];
        ++p.records;
        p.payloadBytes += e.size;
        if (e.stamp < p.minStamp)
            p.minStamp = e.stamp;
        if (e.stamp > p.maxStamp)
            p.maxStamp = e.stamp;
        if (e.stamp >= kWallClockStampFloorNs) {
            ++st.wallStampedRecords;
            if (bucketNs != 0) {
                ThroughputBucket &b =
                    st.buckets[e.stamp - e.stamp % bucketNs];
                ++b.records;
                b.payloadBytes += e.size;
            }
        }
    }
}

Status
SegmentAggregator::addFile(const SegmentFile &file, bool strict)
{
    auto seg = readSegment(file.path, strict);
    if (!seg.ok()) {
        ++st.segmentsScanned;
        ++st.unreadableSegments;
        if (file.indexed) {
            indices.push_back(file.index);
            recomputeGaps();
        }
        return seg.status();
    }
    addSegment(seg.value(), file);
    return Status();
}

Status
SegmentAggregator::addAll(const std::string &dirOrFile, bool strict)
{
    auto files = listSegmentFiles(dirOrFile);
    if (!files.ok())
        return files.status();
    Status first;
    for (const SegmentFile &f : files.value()) {
        Status s = addFile(f, strict);
        if (!s.ok() && first.ok())
            first = s;
    }
    return first;
}

namespace {

/** The observation window, for rate computation: drain window when v2
 * headers declared one, else the wall-stamp span, else zero. */
double
observationSeconds(const SegmentDirStats &st)
{
    if (st.lastDrainUnixNs > st.firstDrainUnixNs &&
        st.firstDrainUnixNs != 0)
        return double(st.lastDrainUnixNs - st.firstDrainUnixNs) / 1e9;
    if (st.wallStampedRecords != 0 && st.maxStamp > st.minStamp &&
        st.minStamp >= kWallClockStampFloorNs)
        return double(st.maxStamp - st.minStamp) / 1e9;
    return 0.0;
}

/** The @p topN rows of a category or producer table, most records first. */
template <typename Map>
std::vector<typename Map::const_iterator>
topRows(const Map &m, std::size_t topN)
{
    std::vector<typename Map::const_iterator> rows;
    rows.reserve(m.size());
    for (auto it = m.begin(); it != m.end(); ++it)
        rows.push_back(it);
    std::sort(rows.begin(), rows.end(), [](auto a, auto b) {
        return a->second.records > b->second.records;
    });
    if (topN != 0 && rows.size() > topN)
        rows.resize(topN);
    return rows;
}

} // namespace

std::string
SegmentAggregator::renderTable(std::size_t topN) const
{
    std::string out;
    out.reserve(2048);
    char line[256];
    const auto add = [&](const char *fmt, auto... args) {
        std::snprintf(line, sizeof(line), fmt, args...);
        out += line;
    };

    add("segments: %" PRIu64 " scanned (%" PRIu64 " v1, %" PRIu64
        " v2), %" PRIu64 " torn, %" PRIu64 " dirty, %" PRIu64
        " unreadable\n",
        st.segmentsScanned, st.v1Segments, st.v2Segments,
        st.tornSegments, st.dirtySegments, st.unreadableSegments);
    add("rotation: %" PRIu64 " gap(s), %" PRIu64
        " segment(s) aged out by retention\n",
        st.rotationGaps, st.missingIndices);
    add("records: %" PRIu64 " (%" PRIu64 " payload bytes)",
        st.records, st.payloadBytes);
    if (st.records != 0)
        add(", stamps %" PRIu64 " .. %" PRIu64, st.minStamp,
            st.maxStamp);
    out += "\n";
    const double window = observationSeconds(st);
    if (window > 0.0)
        add("window: %.3f s -> %.1f records/s, %.1f bytes/s\n", window,
            double(st.records) / window,
            double(st.payloadBytes) / window);

    out += "\nretention quality:\n";
    add("  declared by headers   %" PRIu64 " records, %" PRIu64
        " bytes\n",
        st.declaredRecords, st.declaredPayloadBytes);
    add("  found by scan         %" PRIu64 " records, %" PRIu64
        " bytes%s\n",
        st.records, st.payloadBytes,
        st.headerScanMismatch() ? "   << MISMATCH" : "");
    add("  overwritten positions %" PRIu64 "\n",
        st.overwrittenPositions);
    add("  skipped blocks        %" PRIu64 "\n", st.skippedBlocks);
    add("  abandoned blocks      %" PRIu64 "\n", st.abandonedBlocks);
    add("  torn tail bytes       %" PRIu64 "\n", st.tornTailBytes);
    const uint64_t lost = st.overwrittenPositions + st.skippedBlocks;
    const double denom = double(st.records) + double(lost);
    add("  retained ratio        %.6f\n",
        denom > 0.0 ? double(st.records) / denom : 1.0);

    if (!st.categories.empty()) {
        add("\ntop categories (%zu of %zu):\n",
            std::min<std::size_t>(topN, st.categories.size()),
            st.categories.size());
        add("  %8s %12s %14s %8s\n", "category", "records", "bytes",
            "share");
        for (auto it : topRows(st.categories, topN))
            add("  %8u %12" PRIu64 " %14" PRIu64 " %7.3f%%\n",
                unsigned(it->first), it->second.records,
                it->second.payloadBytes,
                st.records != 0 ? 100.0 * double(it->second.records) /
                                      double(st.records)
                                : 0.0);
    }

    if (!st.producers.empty()) {
        add("\ntop producers (%zu of %zu):\n",
            std::min<std::size_t>(topN, st.producers.size()),
            st.producers.size());
        add("  %10s %12s %14s %12s\n", "producer", "records", "bytes",
            "records/s");
        for (auto it : topRows(st.producers, topN))
            add("  %10u %12" PRIu64 " %14" PRIu64 " %12.1f\n",
                it->first, it->second.records,
                it->second.payloadBytes,
                window > 0.0 ? double(it->second.records) / window
                             : 0.0);
    }

    if (!st.buckets.empty()) {
        add("\nthroughput (%zu bucket(s) of %.3f s):\n",
            st.buckets.size(), double(bucketNs) / 1e9);
        add("  %20s %12s %14s\n", "bucket start (ns)", "records",
            "bytes");
        std::size_t shown = 0;
        for (const auto &kv : st.buckets) {
            if (topN != 0 && shown++ >= topN) {
                add("  ... (%zu more)\n", st.buckets.size() - topN);
                break;
            }
            add("  %20" PRIu64 " %12" PRIu64 " %14" PRIu64 "\n",
                kv.first, kv.second.records, kv.second.payloadBytes);
        }
    }
    return out;
}

std::string
SegmentAggregator::renderJson(std::size_t topN) const
{
    std::string out;
    out.reserve(2048);
    JsonWriter w(out);
    w.beginObject().field("btrace_stats_version", 1);

    w.key("segments").beginObject();
    w.field("scanned", st.segmentsScanned).field("v1", st.v1Segments);
    w.field("v2", st.v2Segments).field("torn", st.tornSegments);
    w.field("dirty", st.dirtySegments);
    w.field("unreadable", st.unreadableSegments);
    w.field("rotation_gaps", st.rotationGaps);
    w.field("missing_indices", st.missingIndices).endObject();

    w.key("totals").beginObject();
    w.field("records", st.records).field("payload_bytes", st.payloadBytes);
    w.field("wall_stamped_records", st.wallStampedRecords);
    w.field("min_stamp", st.records ? st.minStamp : 0);
    w.field("max_stamp", st.maxStamp);
    w.field("first_drain_unix_ns", st.firstDrainUnixNs);
    w.field("last_drain_unix_ns", st.lastDrainUnixNs).endObject();

    const uint64_t lost = st.overwrittenPositions + st.skippedBlocks;
    const double denom = double(st.records) + double(lost);
    w.key("retention").beginObject();
    w.field("declared_records", st.declaredRecords);
    w.field("declared_payload_bytes", st.declaredPayloadBytes);
    w.field("overwritten_positions", st.overwrittenPositions);
    w.field("skipped_blocks", st.skippedBlocks);
    w.field("abandoned_blocks", st.abandonedBlocks);
    w.field("torn_tail_bytes", st.tornTailBytes);
    w.field("header_scan_mismatch", st.headerScanMismatch());
    const double retained = denom > 0.0 ? double(st.records) / denom : 1.0;
    w.key("retained_ratio").sig(retained, 6).endObject();

    const double window = observationSeconds(st);
    w.key("window_sec").sig(window, 6);

    w.key("categories").beginArray();
    for (auto it : topRows(st.categories, topN)) {
        w.beginObject().field("category", it->first);
        w.field("records", it->second.records);
        w.field("payload_bytes", it->second.payloadBytes);
        const double share = st.records != 0 ? double(it->second.records) /
                                                   double(st.records)
                                             : 0.0;
        w.key("share").sig(share, 6).endObject();
    }
    w.endArray().field("categories_truncated",
                       topN != 0 && st.categories.size() > topN);

    w.key("producers").beginArray();
    for (auto it : topRows(st.producers, topN)) {
        w.beginObject().field("producer", it->first);
        w.field("records", it->second.records);
        w.field("payload_bytes", it->second.payloadBytes);
        const double rate =
            window > 0.0 ? double(it->second.records) / window : 0.0;
        w.key("rate_per_sec").sig(rate, 6).endObject();
    }
    w.endArray().field("producers_truncated",
                       topN != 0 && st.producers.size() > topN);

    w.key("buckets").beginArray();
    for (const auto &kv : st.buckets) {
        w.beginObject().field("start_ns", kv.first);
        w.field("records", kv.second.records);
        w.field("payload_bytes", kv.second.payloadBytes).endObject();
    }
    w.endArray().endObject();
    return out;
}

} // namespace btrace
