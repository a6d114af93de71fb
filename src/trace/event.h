/**
 * @file
 * Wire format of trace entries, shared by BTrace and all baseline
 * tracers so dumps can be analyzed uniformly.
 *
 * Entries are 8-byte aligned and start with a 64-bit descriptor word:
 *
 *     [ magic:8 | type:8 | category:16 | size:32 ]
 *
 * where size is the total entry size in bytes (a multiple of 8,
 * including the descriptor). Four entry types exist:
 *
 *  - Normal:      descriptor, stamp word, origin word, payload bytes.
 *  - Dummy:       descriptor only; fills unusable space (§4.1).
 *  - BlockHeader: descriptor + global block position (§4.2, step 5).
 *  - Skip:        descriptor + skipped position; marks a sacrificed
 *                 block (§3.4).
 *
 * Normal payload bytes follow a deterministic pattern derived from the
 * stamp so that consumers can detect torn or corrupted entries.
 */

#ifndef BTRACE_TRACE_EVENT_H
#define BTRACE_TRACE_EVENT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/cacheline.h"
#include "common/panic.h"

namespace btrace {

/** Entry type tags stored in the descriptor word. */
enum class EntryType : uint8_t
{
    Normal = 1,
    Dummy = 2,
    BlockHeader = 3,
    Skip = 4,
};

/** Entry geometry constants. */
struct EntryLayout
{
    static constexpr uint8_t magic = 0xB7;
    static constexpr std::size_t align = 8;
    static constexpr std::size_t normalHeaderBytes = 24;
    static constexpr std::size_t dummyMinBytes = 8;
    static constexpr std::size_t blockHeaderBytes = 16;
    static constexpr std::size_t skipBytes = 16;

    /** Total size of a normal entry for @p payload_len payload bytes. */
    static constexpr std::size_t
    normalSize(std::size_t payload_len)
    {
        return normalHeaderBytes + alignUp(payload_len, align);
    }
};

/** Pack / unpack the descriptor word. */
struct Descriptor
{
    EntryType type = EntryType::Dummy;
    uint16_t category = 0;
    uint32_t size = 0;

    static constexpr uint64_t
    pack(EntryType type, uint16_t category, uint32_t size)
    {
        return (uint64_t(EntryLayout::magic) << 56) |
               (uint64_t(static_cast<uint8_t>(type)) << 48) |
               (uint64_t(category) << 32) | size;
    }

    static constexpr Descriptor
    unpack(uint64_t word)
    {
        return {static_cast<EntryType>((word >> 48) & 0xff),
                uint16_t((word >> 32) & 0xffff),
                uint32_t(word & 0xffffffffu)};
    }

    static constexpr bool
    validMagic(uint64_t word)
    {
        return (word >> 56) == EntryLayout::magic;
    }
};

/** Origin word packing for normal entries. */
struct Origin
{
    uint16_t core = 0;
    uint32_t thread = 0;

    static constexpr uint64_t
    pack(uint16_t core, uint32_t thread)
    {
        return (uint64_t(core) << 32) | thread;
    }

    static constexpr Origin
    unpack(uint64_t word)
    {
        return {uint16_t((word >> 32) & 0xffff), uint32_t(word)};
    }
};

/** Deterministic payload byte pattern for entry @p stamp. */
inline uint8_t
payloadByte(uint64_t stamp, std::size_t index)
{
    return static_cast<uint8_t>(stamp * 31 + index * 7 + 0x5a);
}

/**
 * payloadByte(stamp, 8 * k + b) for b = 0..7, packed the way
 * writeNormal packs a payload word (byte b at bits 8b). Each byte is
 * base + 7b mod 256; the byte-wise add keeps carries inside a byte
 * (the offsets are below 0x80).
 */
inline uint64_t
payloadWord(uint64_t stamp, std::size_t k)
{
    constexpr uint64_t low7 = 0x7f7f7f7f7f7f7f7full;
    constexpr uint64_t high = 0x8080808080808080ull;
    constexpr uint64_t offsets = 0x312a231c150e0700ull;  // 7b per byte
    const uint64_t b =
        uint64_t(payloadByte(stamp, 8 * k)) * 0x0101010101010101ull;
    return ((b & low7) + offsets) ^ (b & high);
}

/**
 * Store one aligned entry word. Blocks are written by producers while
 * consumers parse them in place (§4.3), so every entry access is a
 * whole-word relaxed atomic: the seqlock-style validation stays
 * race-free, and torn *logical* content is caught by the consumer's
 * post-parse metadata/header re-check.
 */
inline void
storeWord(uint8_t *dst, uint64_t word)
{
    std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t *>(dst))
        .store(word, std::memory_order_relaxed);
}

/**
 * Write a normal entry of normalSize(payload_len) bytes at @p dst.
 * The payload goes in whole pattern words; the last partial word is
 * masked so its padding bytes stay zero.
 */
inline void
writeNormal(uint8_t *dst, uint64_t stamp, uint16_t core, uint32_t thread,
            uint16_t category, std::size_t payload_len)
{
    const auto size = static_cast<uint32_t>(
        EntryLayout::normalSize(payload_len));
    storeWord(dst, Descriptor::pack(EntryType::Normal, category, size));
    storeWord(dst + 8, stamp);
    storeWord(dst + 16, Origin::pack(core, thread));
    uint8_t *payload = dst + EntryLayout::normalHeaderBytes;
    const std::size_t full = payload_len / 8;
    for (std::size_t k = 0; k < full; ++k)
        storeWord(payload + 8 * k, payloadWord(stamp, k));
    if (const std::size_t tail = payload_len % 8)
        storeWord(payload + 8 * full,
                  payloadWord(stamp, full) &
                      ((uint64_t(1) << (8 * tail)) - 1));
}

/** Write a dummy entry spanning exactly @p len bytes (len >= 8). */
void writeDummy(uint8_t *dst, std::size_t len);

/** Write a block-header entry carrying global position @p pos. */
void writeBlockHeader(uint8_t *dst, uint64_t pos);

/** Write a skip marker carrying the skipped position @p pos. */
void writeSkipMarker(uint8_t *dst, uint64_t pos);

/** Decoded view of one entry, produced by EntryCursor. */
struct EntryView
{
    EntryType type;
    uint16_t category;
    uint32_t size;          //!< total entry bytes
    uint64_t stamp;         //!< Normal: logic stamp; Header/Skip: position
    uint16_t core;
    uint32_t thread;
    bool payloadOk;         //!< Normal: payload pattern verified
};

/**
 * Sequential decoder over a byte range holding packed entries.
 * Returns false from next() at end of range or on malformed data
 * (malformed() tells which). Every read is a relaxed atomic load of
 * one aligned word, so the range may be a block producers are writing
 * concurrently (the consumer parses in place, §4.3); the caller
 * re-validates the block before trusting what was decoded.
 */
class EntryCursor
{
  public:
    EntryCursor(const uint8_t *data, std::size_t len)
        : cur(data), end(data + len) {}

    /** Decode the next entry into @p out; false at end / on damage. */
    bool next(EntryView &out);

    /** True iff decoding stopped because of malformed bytes. */
    bool malformed() const { return damaged; }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return std::size_t(end - cur); }

  private:
    const uint8_t *cur;
    const uint8_t *end;
    bool damaged = false;
};

} // namespace btrace

#endif // BTRACE_TRACE_EVENT_H
