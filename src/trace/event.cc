#include "trace/event.h"

#include <atomic>

namespace btrace {

namespace {

// Blocks are written by producers while consumers read them
// speculatively (§4.3), and EntryCursor parses those shared blocks in
// place. All accesses are whole-word relaxed atomics, so the
// seqlock-style validation is race-free; torn *logical* content is
// caught by the consumer's post-parse metadata/header re-check.

void
storeWord(uint8_t *dst, uint64_t word)
{
    std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t *>(dst))
        .store(word, std::memory_order_relaxed);
}

uint64_t
loadWord(const uint8_t *src)
{
    return std::atomic_ref<const uint64_t>(
               *reinterpret_cast<const uint64_t *>(src))
        .load(std::memory_order_relaxed);
}

constexpr uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;
constexpr uint64_t kHigh = 0x8080808080808080ull;

/**
 * payloadByte(stamp, 8 * k + b) for b = 0..7, packed the way
 * writeNormal packs a payload word (byte b at bits 8b). Each byte is
 * base + 7b mod 256; the byte-wise add keeps carries inside a byte
 * (the offsets are below 0x80).
 */
uint64_t
payloadWord(uint64_t stamp, std::size_t k)
{
    const uint64_t b =
        uint64_t(payloadByte(stamp, 8 * k)) * 0x0101010101010101ull;
    constexpr uint64_t offsets = 0x312a231c150e0700ull;  // 7b per byte
    return ((b & kLow7) + offsets) ^ (b & kHigh);
}

/** High bit set in exactly the bytes of @p v that are nonzero. */
uint64_t
nonzeroBytes(uint64_t v)
{
    return (((v & kLow7) + kLow7) | v) & kHigh;
}

} // namespace

void
writeNormal(uint8_t *dst, uint64_t stamp, uint16_t core, uint32_t thread,
            uint16_t category, std::size_t payload_len)
{
    const auto size = static_cast<uint32_t>(
        EntryLayout::normalSize(payload_len));
    storeWord(dst, Descriptor::pack(EntryType::Normal, category, size));
    storeWord(dst + 8, stamp);
    storeWord(dst + 16, Origin::pack(core, thread));
    uint8_t *payload = dst + EntryLayout::normalHeaderBytes;
    const std::size_t padded = size - EntryLayout::normalHeaderBytes;
    for (std::size_t w = 0; w < padded; w += 8) {
        uint64_t word = 0;
        for (std::size_t b = 0; b < 8; ++b) {
            const std::size_t i = w + b;
            const uint8_t byte =
                i < payload_len ? payloadByte(stamp, i) : 0;
            word |= uint64_t(byte) << (8 * b);
        }
        storeWord(payload + w, word);
    }
}

void
writeDummy(uint8_t *dst, std::size_t len)
{
    BTRACE_DASSERT(len >= EntryLayout::dummyMinBytes &&
                   len % EntryLayout::align == 0, "bad dummy length");
    storeWord(dst, Descriptor::pack(EntryType::Dummy, 0,
                                    static_cast<uint32_t>(len)));
}

void
writeBlockHeader(uint8_t *dst, uint64_t pos)
{
    storeWord(dst, Descriptor::pack(EntryType::BlockHeader, 0,
                                    EntryLayout::blockHeaderBytes));
    storeWord(dst + 8, pos);
}

void
writeSkipMarker(uint8_t *dst, uint64_t pos)
{
    storeWord(dst, Descriptor::pack(EntryType::Skip, 0,
                                    EntryLayout::skipBytes));
    storeWord(dst + 8, pos);
}

bool
EntryCursor::next(EntryView &out)
{
    if (cur >= end || damaged)
        return false;
    if (std::size_t(end - cur) < 8) {
        damaged = true;
        return false;
    }

    const uint64_t word0 = loadWord(cur);
    if (!Descriptor::validMagic(word0)) {
        damaged = true;
        return false;
    }
    const Descriptor desc = Descriptor::unpack(word0);
    if (desc.size < 8 || desc.size % EntryLayout::align != 0 ||
        desc.size > std::size_t(end - cur)) {
        damaged = true;
        return false;
    }

    out = EntryView{};
    out.type = desc.type;
    out.category = desc.category;
    out.size = desc.size;

    switch (desc.type) {
      case EntryType::Normal: {
        if (desc.size < EntryLayout::normalHeaderBytes) {
            damaged = true;
            return false;
        }
        out.stamp = loadWord(cur + 8);
        const Origin origin = Origin::unpack(loadWord(cur + 16));
        out.core = origin.core;
        out.thread = origin.thread;
        const uint8_t *payload = cur + EntryLayout::normalHeaderBytes;
        const std::size_t padded =
            desc.size - EntryLayout::normalHeaderBytes;
        // Verify up to the first 16 payload bytes; enough to catch torn
        // or stale data without a full re-hash on every dump. A byte
        // passes when it matches the pattern or is zero (padding), so
        // a word fails iff some byte both differs and is nonzero.
        const std::size_t words = padded < 16 ? padded / 8 : 2;
        uint64_t bad = 0;
        for (std::size_t k = 0; k < words; ++k) {
            const uint64_t w = loadWord(payload + 8 * k);
            bad |= nonzeroBytes(w ^ payloadWord(out.stamp, k)) &
                   nonzeroBytes(w);
        }
        out.payloadOk = bad == 0;
        break;
      }
      case EntryType::Dummy:
        break;
      case EntryType::BlockHeader:
      case EntryType::Skip:
        if (desc.size < 16) {
            damaged = true;
            return false;
        }
        out.stamp = loadWord(cur + 8);
        break;
      default:
        damaged = true;
        return false;
    }

    cur += desc.size;
    return true;
}

} // namespace btrace
