#include "trace/trace_file.h"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <cstring>

namespace btrace {

uint64_t
wallClockNs()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_REALTIME, &ts);
    return uint64_t(ts.tv_sec) * 1'000'000'000ull +
           uint64_t(ts.tv_nsec);
}

Status
writeTraceFileHeader(int fd)
{
    const uint64_t magic = kTraceFileMagic;
    if (::write(fd, &magic, sizeof(magic)) != ssize_t(sizeof(magic)))
        return errIo("cannot write trace file header");
    return Status();
}

Status
writeSegmentHeaderV2(int fd, SegmentHeaderV2 &hdr)
{
    hdr.headerBytes = sizeof(SegmentHeaderV2);
    const uint64_t magic = kTraceFileMagicV2;
    if (::pwrite(fd, &magic, sizeof(magic), 0) !=
        ssize_t(sizeof(magic)))
        return errIo("cannot write segment magic");
    if (::pwrite(fd, &hdr, sizeof(hdr), sizeof(magic)) !=
        ssize_t(sizeof(hdr)))
        return errIo("cannot write segment header");
    // Leave the append offset past the header for the record stream.
    if (::lseek(fd, sizeof(magic) + sizeof(hdr), SEEK_SET) < 0)
        return errIo("cannot seek past segment header");
    return Status();
}

Status
updateSegmentHeaderV2(int fd, const SegmentHeaderV2 &hdr)
{
    // Re-stamp headerBytes: this build always writes its own layout,
    // and a caller-built header (tests, repair tools) may not have
    // been through writeSegmentHeaderV2.
    SegmentHeaderV2 h = hdr;
    h.headerBytes = sizeof(SegmentHeaderV2);
    if (::pwrite(fd, &h, sizeof(h), sizeof(uint64_t)) !=
        ssize_t(sizeof(h)))
        return errIo("cannot update segment header");
    return Status();
}

Status
writeTraceRecords(int fd, const std::vector<TraceDiskRecord> &records)
{
    if (records.empty())
        return Status();
    const auto bytes = records.size() * sizeof(TraceDiskRecord);
    const ssize_t n = ::write(fd, records.data(), bytes);
    if (n == ssize_t(bytes))
        return Status();
    // A short write (ENOSPC, EFBIG) leaves a partial record behind,
    // and every later append would decode at a shifted offset: cut
    // the file back to where this append started.
    if (n > 0) {
        const off_t start = ::lseek(fd, -off_t(n), SEEK_CUR);
        if (start < 0 || ::ftruncate(fd, start) != 0)
            return errIo("short write appending trace records, and "
                         "the partial record could not be cut off");
    }
    return errIo("short write appending trace records");
}

Status
appendTraceRecords(int fd, const std::vector<DumpEntry> &entries)
{
    std::vector<TraceDiskRecord> buf;
    buf.reserve(entries.size());
    for (const DumpEntry &e : entries)
        buf.push_back(TraceDiskRecord::fromEntry(e));
    return writeTraceRecords(fd, buf);
}

Expected<SegmentInfo>
readSegment(const std::string &path, bool strict)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return errNotFound("no such trace file: " + path);

    SegmentInfo info;
    uint64_t magic = 0;
    if (::read(fd, &magic, sizeof(magic)) != ssize_t(sizeof(magic))) {
        ::close(fd);
        return errCorruption("not a btrace trace file: " + path);
    }
    if (magic == kTraceFileMagicV2) {
        info.version = 2;
        // headerBytes first, so a reader from this build can skip a
        // larger future header without understanding its tail.
        if (::read(fd, &info.header, sizeof(info.header)) !=
                ssize_t(sizeof(info.header)) ||
            info.header.headerBytes < sizeof(info.header)) {
            ::close(fd);
            return errCorruption("segment cut off inside its header: " +
                                 path);
        }
        if (info.header.headerBytes > sizeof(info.header) &&
            ::lseek(fd,
                    off_t(sizeof(magic)) + off_t(info.header.headerBytes),
                    SEEK_SET) < 0) {
            ::close(fd);
            return errCorruption("segment header overruns the file: " +
                                 path);
        }
    } else if (magic != kTraceFileMagic) {
        ::close(fd);
        return errCorruption("not a btrace trace file: " + path);
    }

    // Records in large chunks, not one read(2) each. A record cut by
    // a chunk boundary carries over to the front of the next chunk;
    // what is still carried at end of file is the torn tail.
    std::vector<uint8_t> chunk(kSegmentReadChunkBytes);
    std::size_t carried = 0;
    bool failed = false;
    for (;;) {
        const ssize_t got = ::read(fd, chunk.data() + carried,
                                   chunk.size() - carried);
        if (got <= 0) {
            failed = got < 0;
            break;
        }
        const std::size_t have = carried + std::size_t(got);
        std::size_t off = 0;
        for (; have - off >= sizeof(TraceDiskRecord);
             off += sizeof(TraceDiskRecord)) {
            TraceDiskRecord rec;
            std::memcpy(&rec, chunk.data() + off, sizeof(rec));
            info.entries.push_back(rec.toEntry());
        }
        carried = have - off;
        std::memmove(chunk.data(), chunk.data() + off, carried);
    }
    ::close(fd);
    if (carried != 0 || failed) {
        if (strict)
            return errCorruption("torn trace record at the end of " +
                                 path);
        info.torn = true;
        info.tornTailBytes = carried;
    }
    return Expected<SegmentInfo>(std::move(info));
}

Expected<std::vector<DumpEntry>>
readTraceFile(const std::string &path)
{
    auto seg = readSegment(path, /*strict=*/true);
    if (!seg.ok())
        return seg.status();
    return Expected<std::vector<DumpEntry>>(
        std::move(seg.value().entries));
}

} // namespace btrace
