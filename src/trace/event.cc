#include "trace/event.h"

#include <atomic>

namespace btrace {

namespace {

/** The load half of storeWord (event.h): one relaxed aligned word. */
uint64_t
loadWord(const uint8_t *src)
{
    return std::atomic_ref<const uint64_t>(
               *reinterpret_cast<const uint64_t *>(src))
        .load(std::memory_order_relaxed);
}

constexpr uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;
constexpr uint64_t kHigh = 0x8080808080808080ull;

/** High bit set in exactly the bytes of @p v that are nonzero. */
uint64_t
nonzeroBytes(uint64_t v)
{
    return (((v & kLow7) + kLow7) | v) & kHigh;
}

} // namespace

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
