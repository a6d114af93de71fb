/**
 * @file
 * The on-disk trace file format of the btraced consumer daemon's
 * rotating segments.
 *
 * Two versions share one record shape (fixed 24-byte records, one per
 * DumpEntry, appended with plain write(2)):
 *
 *  - "BTBTRPv1": an 8-byte magic followed directly by records. The
 *    daemon writes v2 only; v1 files still decode.
 *  - "BTBTRPv2": the magic, then a fixed SegmentHeaderV2 carrying the
 *    segment's provenance (writer pid + attach generation), its drain
 *    wall-clock window, per-category record/byte tallies, and the loss
 *    accounting the drain observed (overwritten positions, skipped
 *    blocks) — then records. The writer rewrites the header in place
 *    (pwrite) after every drain, so even a SIGKILLed daemon leaves
 *    behind declared totals at most one drain stale; readers reconcile
 *    the declaration against the record scan (segment_stats.h).
 *
 * Readers get every fully written record of a file that was cut off
 * mid-write (truncated tails surface as Corruption in strict mode and
 * as a reported torn tail in lossy mode), which is what a crash-robust
 * collector needs.
 */

#ifndef BTRACE_TRACE_TRACE_FILE_H
#define BTRACE_TRACE_TRACE_FILE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace/tracer.h"

namespace btrace {

/** File magic of a v1 persisted trace ("BTBTRPv1"). */
constexpr uint64_t kTraceFileMagic = 0x31765052'54425442ull;

/** File magic of a v2 segment ("BTBTRPv2"). */
constexpr uint64_t kTraceFileMagicV2 = 0x32765052'54425442ull;

/** Fixed 24-byte on-disk record. */
struct TraceDiskRecord
{
    uint64_t stamp;
    uint32_t size;
    uint16_t core;
    uint16_t category;
    uint32_t thread;
    uint32_t flags;  // bit 0: payloadOk

    static TraceDiskRecord
    fromEntry(const DumpEntry &e)
    {
        return TraceDiskRecord{e.stamp,    e.size,
                               e.core,     e.category,
                               e.thread,   e.payloadOk ? 1u : 0u};
    }

    DumpEntry
    toEntry() const
    {
        return DumpEntry{stamp, size,     core,
                         thread, category, (flags & 1u) != 0};
    }
};

static_assert(sizeof(TraceDiskRecord) == 24,
              "disk record must be packed");

/** Category slots tallied per segment; higher ids pool into "other". */
constexpr std::size_t kSegmentCategorySlots = 16;

/**
 * Stamps at or above this value are treated as CLOCK_REALTIME
 * nanoseconds (~2017-07 onward) by the freshness/lag machinery;
 * smaller stamps are logical sequence numbers and carry no wall-clock
 * meaning.
 */
constexpr uint64_t kWallClockStampFloorNs =
    1'500'000'000ull * 1'000'000'000ull;

/** CLOCK_REALTIME now, in nanoseconds. */
uint64_t wallClockNs();

/**
 * The fixed per-segment provenance block of a v2 segment, stored
 * immediately after the magic and rewritten in place by the writer
 * after every drain. All counters describe *this* segment only; the
 * loss fields are the drain-side accounting (Dump bookkeeping) for
 * the drains that landed here.
 */
struct SegmentHeaderV2
{
    /** On-disk size of this header; readers skip exactly this many. */
    uint32_t headerBytes = 0;
    uint32_t flags = 0;
    uint64_t writerPid = 0;         //!< pid of the draining process
    uint64_t attachGeneration = 0;  //!< writer's arena attach draw
    uint64_t firstDrainUnixNs = 0;  //!< wall clock of the first drain
    uint64_t lastDrainUnixNs = 0;   //!< wall clock of the latest drain
    uint64_t recordCount = 0;
    uint64_t payloadBytes = 0;      //!< sum of DumpEntry::size
    uint64_t overwrittenPositions = 0;  //!< data loss seen by the cursor
    uint64_t skippedBlocks = 0;         //!< blocks lost to SKP markers
    uint64_t abandonedBlocks = 0;
    uint64_t minStamp = UINT64_MAX;  //!< UINT64_MAX while empty
    uint64_t maxStamp = 0;
    uint64_t categoryRecords[kSegmentCategorySlots] = {};
    uint64_t categoryBytes[kSegmentCategorySlots] = {};
    uint64_t otherCategoryRecords = 0;  //!< categories >= the slot count
    uint64_t otherCategoryBytes = 0;
    uint64_t reserved[6] = {};

    /** The writer finalized this segment (rotation or clean stop). */
    static constexpr uint32_t kCleanClose = 1u << 0;

    /** Fold one drained entry into the tallies. */
    void
    noteEntry(const DumpEntry &e)
    {
        ++recordCount;
        payloadBytes += e.size;
        if (e.stamp < minStamp)
            minStamp = e.stamp;
        if (e.stamp > maxStamp)
            maxStamp = e.stamp;
        if (e.category < kSegmentCategorySlots) {
            ++categoryRecords[e.category];
            categoryBytes[e.category] += e.size;
        } else {
            ++otherCategoryRecords;
            otherCategoryBytes += e.size;
        }
    }
};

static_assert(sizeof(SegmentHeaderV2) == 416,
              "segment header layout is part of the on-disk format");

/** Write the v1 8-byte magic to @p fd (fresh file / segment). */
Status writeTraceFileHeader(int fd);

/**
 * Start a v2 segment: write the magic and @p hdr at offset 0. The
 * header's headerBytes field is stamped by this call.
 */
Status writeSegmentHeaderV2(int fd, SegmentHeaderV2 &hdr);

/**
 * Rewrite the header of a v2 segment in place (pwrite at the fixed
 * offset past the magic); record appends via write(2) are unaffected.
 */
Status updateSegmentHeaderV2(int fd, const SegmentHeaderV2 &hdr);

/**
 * Append @p records to @p fd in one write(2). A short write is
 * IoError, and the partial record it left is cut off again, so the
 * file still ends at a record boundary and a later append decodes.
 */
Status writeTraceRecords(int fd,
                         const std::vector<TraceDiskRecord> &records);

/** Encode @p entries as records and append them (writeTraceRecords). */
Status appendTraceRecords(int fd, const std::vector<DumpEntry> &entries);

/**
 * readSegment reads records in chunks of this many bytes — not a
 * multiple of the record size, so a record may straddle two chunks.
 */
constexpr std::size_t kSegmentReadChunkBytes = 64 * 1024;

/** One decoded segment file: declared header (v2) plus the scan. */
struct SegmentInfo
{
    uint32_t version = 1;      //!< 1 or 2
    SegmentHeaderV2 header{};  //!< all-zero (minStamp aside) for v1
    std::vector<DumpEntry> entries;
    bool torn = false;         //!< file ended mid-record
    uint64_t tornTailBytes = 0;  //!< bytes of the torn partial record
};

/**
 * Decode a segment of either version. NotFound for a missing path;
 * Corruption for a bad magic or a v2 file cut off inside its header.
 * A torn record tail is Corruption when @p strict, otherwise reported
 * through SegmentInfo::torn/tornTailBytes with every complete record
 * decoded.
 */
Expected<SegmentInfo> readSegment(const std::string &path,
                                  bool strict = false);

/**
 * Read a trace file's records back (either version; v2 headers are
 * skipped). NotFound for a missing path, Corruption for a bad magic
 * or a torn (non-record-multiple) tail; readSegment(path, false)
 * keeps the complete records of a torn file instead.
 */
Expected<std::vector<DumpEntry>> readTraceFile(const std::string &path);

} // namespace btrace

#endif // BTRACE_TRACE_TRACE_FILE_H
