/** @file Unit tests for the trace entry wire format. */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/prng.h"
#include "trace/event.h"

namespace btrace {
namespace {

TEST(Descriptor, RoundTrips)
{
    const uint64_t w = Descriptor::pack(EntryType::Normal, 42, 128);
    EXPECT_TRUE(Descriptor::validMagic(w));
    const Descriptor d = Descriptor::unpack(w);
    EXPECT_EQ(d.type, EntryType::Normal);
    EXPECT_EQ(d.category, 42u);
    EXPECT_EQ(d.size, 128u);
}

TEST(Descriptor, RejectsGarbageMagic)
{
    EXPECT_FALSE(Descriptor::validMagic(0));
    EXPECT_FALSE(Descriptor::validMagic(0xdeadbeefcafebabeull));
}

TEST(Origin, RoundTrips)
{
    const Origin o = Origin::unpack(Origin::pack(11, 1234567));
    EXPECT_EQ(o.core, 11u);
    EXPECT_EQ(o.thread, 1234567u);
}

TEST(EntryLayout, NormalSizeAligned)
{
    EXPECT_EQ(EntryLayout::normalSize(0), 24u);
    EXPECT_EQ(EntryLayout::normalSize(1), 32u);
    EXPECT_EQ(EntryLayout::normalSize(8), 32u);
    EXPECT_EQ(EntryLayout::normalSize(9), 40u);
}

TEST(WriteNormal, ParsesBack)
{
    std::vector<uint8_t> buf(EntryLayout::normalSize(20));
    writeNormal(buf.data(), 777, 3, 9001, 5, 20);

    EntryCursor cur(buf.data(), buf.size());
    EntryView v;
    ASSERT_TRUE(cur.next(v));
    EXPECT_EQ(v.type, EntryType::Normal);
    EXPECT_EQ(v.stamp, 777u);
    EXPECT_EQ(v.core, 3u);
    EXPECT_EQ(v.thread, 9001u);
    EXPECT_EQ(v.category, 5u);
    EXPECT_EQ(v.size, EntryLayout::normalSize(20));
    EXPECT_TRUE(v.payloadOk);
    EXPECT_FALSE(cur.next(v));
    EXPECT_FALSE(cur.malformed());
}

TEST(WriteNormal, PayloadCorruptionDetected)
{
    std::vector<uint8_t> buf(EntryLayout::normalSize(32));
    writeNormal(buf.data(), 12, 0, 0, 0, 32);
    buf[EntryLayout::normalHeaderBytes + 2] ^= 0x55;  // flip a byte

    EntryCursor cur(buf.data(), buf.size());
    EntryView v;
    ASSERT_TRUE(cur.next(v));
    EXPECT_FALSE(v.payloadOk);
}

TEST(WriteDummy, ParsesBackAndSpansGap)
{
    std::vector<uint8_t> buf(64, 0xFF);
    writeDummy(buf.data(), 64);
    EntryCursor cur(buf.data(), buf.size());
    EntryView v;
    ASSERT_TRUE(cur.next(v));
    EXPECT_EQ(v.type, EntryType::Dummy);
    EXPECT_EQ(v.size, 64u);
    EXPECT_FALSE(cur.next(v));
}

TEST(WriteBlockHeaderAndSkip, CarryPositions)
{
    std::vector<uint8_t> buf(32);
    writeBlockHeader(buf.data(), 0x123456789abull);
    writeSkipMarker(buf.data() + 16, 42);

    EntryCursor cur(buf.data(), buf.size());
    EntryView v;
    ASSERT_TRUE(cur.next(v));
    EXPECT_EQ(v.type, EntryType::BlockHeader);
    EXPECT_EQ(v.stamp, 0x123456789abull);
    ASSERT_TRUE(cur.next(v));
    EXPECT_EQ(v.type, EntryType::Skip);
    EXPECT_EQ(v.stamp, 42u);
}

TEST(EntryCursor, SequenceOfMixedEntries)
{
    std::vector<uint8_t> buf(256);
    std::size_t off = 0;
    writeBlockHeader(buf.data() + off, 9);
    off += 16;
    writeNormal(buf.data() + off, 1, 0, 0, 0, 10);
    off += EntryLayout::normalSize(10);
    writeDummy(buf.data() + off, 24);
    off += 24;
    writeNormal(buf.data() + off, 2, 1, 1, 1, 0);
    off += EntryLayout::normalSize(0);

    EntryCursor cur(buf.data(), off);
    EntryView v;
    int normals = 0, dummies = 0, headers = 0;
    while (cur.next(v)) {
        normals += v.type == EntryType::Normal;
        dummies += v.type == EntryType::Dummy;
        headers += v.type == EntryType::BlockHeader;
    }
    EXPECT_FALSE(cur.malformed());
    EXPECT_EQ(normals, 2);
    EXPECT_EQ(dummies, 1);
    EXPECT_EQ(headers, 1);
}

TEST(EntryCursor, MalformedOnBadMagic)
{
    std::vector<uint8_t> buf(32, 0x11);
    EntryCursor cur(buf.data(), buf.size());
    EntryView v;
    EXPECT_FALSE(cur.next(v));
    EXPECT_TRUE(cur.malformed());
}

TEST(EntryCursor, MalformedOnOversizedEntry)
{
    std::vector<uint8_t> buf(32);
    // Claim a 64-byte entry inside a 32-byte range.
    const uint64_t w = Descriptor::pack(EntryType::Dummy, 0, 64);
    std::memcpy(buf.data(), &w, 8);
    EntryCursor cur(buf.data(), buf.size());
    EntryView v;
    EXPECT_FALSE(cur.next(v));
    EXPECT_TRUE(cur.malformed());
}

TEST(EntryCursor, MalformedOnMisalignedSize)
{
    std::vector<uint8_t> buf(32);
    const uint64_t w = Descriptor::pack(EntryType::Dummy, 0, 12);
    std::memcpy(buf.data(), &w, 8);
    EntryCursor cur(buf.data(), buf.size());
    EntryView v;
    EXPECT_FALSE(cur.next(v));
    EXPECT_TRUE(cur.malformed());
}

TEST(EntryCursor, EmptyRangeIsCleanEnd)
{
    EntryCursor cur(nullptr, 0);
    EntryView v;
    EXPECT_FALSE(cur.next(v));
    EXPECT_FALSE(cur.malformed());
}

TEST(EntryCursor, ZeroBytesTreatedAsUnused)
{
    std::vector<uint8_t> buf(64, 0);
    EntryCursor cur(buf.data(), buf.size());
    EntryView v;
    EXPECT_FALSE(cur.next(v));
    EXPECT_TRUE(cur.malformed());  // zeros are not valid entries
}

// The byte loop EntryCursor used before its word-wise check: the first
// (up to) 16 payload bytes must each match the stamp's pattern or be
// zero (padding).
bool
bytewisePayloadOk(const uint8_t *payload, std::size_t padded,
                  uint64_t stamp)
{
    const std::size_t check = padded < 16 ? padded : 16;
    for (std::size_t i = 0; i < check; ++i)
        if (payload[i] != payloadByte(stamp, i) && payload[i] != 0)
            return false;
    return true;
}

// Byte-loop reference of a whole normal entry: descriptor, stamp and
// origin words, then payloadByte(stamp, i) for every payload byte and
// zero padding up to the next word boundary.
std::vector<uint8_t>
bytewiseNormal(uint64_t stamp, uint16_t core, uint32_t thread,
               uint16_t category, std::size_t len)
{
    const std::size_t size = EntryLayout::normalSize(len);
    std::vector<uint8_t> out(size, 0);
    const uint64_t header[] = {
        Descriptor::pack(EntryType::Normal, category, uint32_t(size)),
        stamp, Origin::pack(core, thread)};
    std::memcpy(out.data(), header, sizeof(header));
    for (std::size_t i = 0; i < len; ++i)
        out[EntryLayout::normalHeaderBytes + i] = payloadByte(stamp, i);
    return out;
}

TEST(WriteNormal, WordwiseFillMatchesByteLoop)
{
    // Every payload length up to 520 bytes, so every len % 8 and thus
    // every mask of the last partial word, over 4168 seeded stamps.
    // The buffer starts as garbage and runs past the entry: padding
    // must come out zero and nothing past the entry may be written.
    constexpr std::size_t kMaxLen = 520;
    constexpr uint8_t kGarbage = 0xa5;
    alignas(8) uint8_t buf[EntryLayout::normalSize(kMaxLen) + 16];
    Prng rng(0xf111);
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
        for (int s = 0; s < 8; ++s) {
            const uint64_t stamp =
                s == 0 ? 0 : s == 1 ? ~uint64_t(0) : rng.next();
            const auto core = uint16_t(rng.next());
            const auto thread = uint32_t(rng.next());
            const auto category = uint16_t(rng.next());
            std::memset(buf, kGarbage, sizeof(buf));
            writeNormal(buf, stamp, core, thread, category, len);

            const std::vector<uint8_t> want =
                bytewiseNormal(stamp, core, thread, category, len);
            ASSERT_EQ(std::memcmp(buf, want.data(), want.size()), 0)
                << "len " << len << " stamp " << stamp;
            for (std::size_t i = want.size(); i < sizeof(buf); ++i)
                ASSERT_EQ(buf[i], kGarbage) << "len " << len;

            EntryCursor cur(buf, want.size());
            EntryView v;
            ASSERT_TRUE(cur.next(v));
            EXPECT_EQ(v.type, EntryType::Normal);
            EXPECT_EQ(v.size, want.size());
            EXPECT_EQ(v.stamp, stamp);
            EXPECT_EQ(v.core, core);
            EXPECT_EQ(v.thread, thread);
            EXPECT_EQ(v.category, category);
            ASSERT_TRUE(v.payloadOk) << "len " << len << " stamp " << stamp;
            EXPECT_FALSE(cur.next(v));
            EXPECT_FALSE(cur.malformed());
        }
    }
}

TEST(EntryCursor, WordwisePayloadCheckMatchesByteLoop)
{
    Prng rng(0x5eed);
    const std::size_t lens[] = {0, 1, 5, 8, 9, 12, 16, 17, 40};
    uint64_t passed = 0, failed = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        const std::size_t len = lens[rng.nextBounded(std::size(lens))];
        const uint64_t stamp = rng.next();
        std::vector<uint8_t> buf(EntryLayout::normalSize(len));
        writeNormal(buf.data(), stamp, 1, 2, 3, len);

        uint8_t *payload = buf.data() + EntryLayout::normalHeaderBytes;
        const std::size_t padded =
            buf.size() - EntryLayout::normalHeaderBytes;
        const std::size_t checked = padded < 16 ? padded : 16;
        const uint64_t hits = checked ? rng.nextBounded(4) : 0;
        for (uint64_t h = 0; h < hits; ++h) {
            uint8_t &b = payload[rng.nextBounded(checked)];
            switch (rng.nextBounded(4)) {
            case 0: b = 0; break;                       // reads as padding
            case 1: b = uint8_t(rng.next()); break;     // any byte
            case 2: b ^= uint8_t(1u << rng.nextBounded(8)); break;
            default: b = payloadByte(stamp + 1, 0); break;  // stale
            }
        }

        EntryCursor cur(buf.data(), buf.size());
        EntryView v;
        ASSERT_TRUE(cur.next(v));
        const bool want = bytewisePayloadOk(payload, padded, stamp);
        ASSERT_EQ(v.payloadOk, want)
            << "len " << len << " stamp " << stamp;
        ++(want ? passed : failed);
    }
    // Both verdicts must actually be exercised.
    EXPECT_GT(passed, 1000u);
    EXPECT_GT(failed, 1000u);
}

TEST(PayloadByte, DeterministicPerStamp)
{
    EXPECT_EQ(payloadByte(5, 0), payloadByte(5, 0));
    EXPECT_NE(payloadByte(5, 0), payloadByte(6, 0));
}

} // namespace
} // namespace btrace
