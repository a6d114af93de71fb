#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/json_writer.h"
#include "obs/json_reader.h"

namespace btrace {

namespace {

/** §3.2 classification of one raw slot, mirroring occupancy(). */
const char *
slotStateName(const MetaSlotState &s, std::size_t cap)
{
    if (s.confPos >= cap) return "complete";
    if (s.allocRnd == s.confRnd && s.allocPos == s.confPos) return "open";
    return "incomplete";
}

/** write(2) until done; EINTR-safe, allocation-free. */
bool
writeFully(int fd, const char *buf, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::write(fd, buf, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        buf += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

FlightRecorder::FlightRecorder(BTrace &tracer, const EventJournal *journal,
                               FlightRecorderOptions options)
    : bt(tracer), jnl(journal), opt(std::move(options))
{
    // Size every capture buffer now; the dump path must never touch
    // the allocator (DESIGN.md §9).
    slotScratch.resize(bt.config().activeBlocks);
    jnlScratch.resize(jnl != nullptr ? jnl->capacity() : 0);
    renderBuf.resize(4096 + 192 * slotScratch.size() + 256 * opt.lastN);
}

std::string
FlightRecorder::render(const std::string &trigger) const
{
    std::string out(renderBuf.size(), '\0');
    out.resize(renderInto(out.data(), out.size(), trigger.c_str()));
    return out;
}

std::size_t
FlightRecorder::renderInto(char *dst, std::size_t cap,
                           const char *trigger) const noexcept
{
    // Capture order matters loosely: journal tail last, so the events
    // explaining the counters/slots we just read are least likely to
    // have been overwritten in between. Everything here is relaxed
    // atomic reads — no tracer locks, safe while a resize is wedged.
    const BTraceCounters::Snapshot c = bt.countersSnapshot();
    const ActiveBlockOccupancy occ = bt.occupancy();
    const std::size_t nslots =
        bt.slotStatesInto(slotScratch.data(), slotScratch.size());
    const std::size_t block_cap = bt.config().blockSize;

    // Over the caller's buffer the writer never allocates.
    JsonWriter w(dst, cap);
    w.beginObject().field("bundle", "btrace-flight-v1");
    w.field("trigger", trigger);

    w.key("counters").beginObject();
    w.field("fast_allocs", c.fastAllocs);
    w.field("boundary_fills", c.boundaryFills);
    w.field("stale_allocs", c.staleAllocs);
    w.field("advances", c.advances);
    w.field("skips", c.skips);
    w.field("closes", c.closes);
    w.field("lock_races", c.lockRaces);
    w.field("core_races", c.coreRaces);
    w.field("would_block", c.wouldBlock);
    w.field("dummy_bytes", c.dummyBytes);
    w.field("resizes", c.resizes);
    w.field("shared_rmws", c.sharedRmws);
    w.field("leases", c.leases);
    w.field("lease_entries", c.leaseEntries);
    w.field("leased_outstanding", c.leasedOutstanding);
    w.endObject();

    w.key("gauges").beginObject();
    w.field("head_position", bt.headPosition());
    w.field("capacity_bytes", bt.capacityBytes());
    w.field("resident_bytes", bt.residentBytes());
    w.field("blocks_complete", occ.complete);
    w.field("blocks_open", occ.open);
    w.field("blocks_incomplete", occ.incomplete);
    w.endObject();

    w.key("slots").beginArray();
    for (std::size_t i = 0; i < nslots; ++i) {
        const MetaSlotState &s = slotScratch[i];
        w.beginObject().field("slot", i);
        w.field("alloc_rnd", s.allocRnd).field("alloc_pos", s.allocPos);
        w.field("conf_rnd", s.confRnd).field("conf_pos", s.confPos);
        w.field("state", slotStateName(s, block_cap)).endObject();
    }
    w.endArray();

    std::size_t ntail = jnl != nullptr
                            ? jnl->snapshotInto(jnlScratch.data(),
                                                jnlScratch.size())
                            : 0;
    std::size_t first = 0;
    if (ntail > opt.lastN)
        first = ntail - opt.lastN;  // keep only the newest lastN
    w.field("journal_emitted", jnl != nullptr ? jnl->emitted() : 0);
    w.key("journal").beginArray();
    for (std::size_t i = first; i < ntail; ++i) {
        const JournalRecord &r = jnlScratch[i];
        w.beginObject().field("kind", journalEventKindName(r.kind));
        if (r.kind == JournalEventKind::BlockClose)
            w.field("reason", blockCloseReasonName(
                                  static_cast<BlockCloseReason>(r.arg)));
        w.field("tsc", r.tsc).field("seq", r.seq).field("tid", r.tid);
        w.field("core", r.core).field("block", r.block);
        w.field("arg", r.arg).endObject();
    }
    w.endArray().endObject();
    return w.size();
}

bool
FlightRecorder::dump(const char *trigger) noexcept
{
    const std::size_t n =
        renderInto(renderBuf.data(), renderBuf.size(), trigger);

    // Arena first: on an arena-backed tracer the flight region is the
    // copy that survives the process, so it must not depend on the
    // filesystem write below succeeding (no-op on private storage).
    bt.writeFlightToArena(renderBuf.data(), n);

    if (opt.path.empty())
        return false;
    const int fd = ::open(opt.path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    const bool wrote = writeFully(fd, renderBuf.data(), n);
    const bool closed = ::close(fd) == 0;
    const bool ok = wrote && closed;
    if (ok)
        written.fetch_add(1, std::memory_order_relaxed);
    return ok;
}

ParsedFlightBundle
parseFlightBundle(const std::string &text)
{
    ParsedFlightBundle out;
    JsonValue root;
    JsonReader reader(text);
    if (!reader.parse(root) || root.type != JsonValue::Type::Object) {
        out.error = reader.error.empty() ? "not a JSON object"
                                         : reader.error;
        return out;
    }

    const JsonValue *magic = root.find("bundle");
    if (magic == nullptr || magic->type != JsonValue::Type::String ||
        magic->str != "btrace-flight-v1") {
        out.error = "missing or unknown bundle marker";
        return out;
    }
    if (const JsonValue *t = root.find("trigger");
        t != nullptr && t->type == JsonValue::Type::String)
        out.trigger = t->str;

    const auto numberMap = [&](const char *key,
                               std::map<std::string, double> &dst) {
        const JsonValue *v = root.find(key);
        if (v == nullptr) return true;
        if (v->type != JsonValue::Type::Object) return false;
        for (const auto &kv : v->obj) {
            if (kv.second.type != JsonValue::Type::Number) return false;
            dst[kv.first] = kv.second.num;
        }
        return true;
    };
    if (!numberMap("counters", out.counters) ||
        !numberMap("gauges", out.gauges)) {
        out.error = "non-numeric counter/gauge value";
        return out;
    }

    if (const JsonValue *v = root.find("slots")) {
        if (v->type != JsonValue::Type::Array) {
            out.error = "slots not an array";
            return out;
        }
        for (const JsonValue &e : v->arr) {
            if (e.type != JsonValue::Type::Object) {
                out.error = "slot entry not an object";
                return out;
            }
            std::map<std::string, double> slot;
            for (const auto &kv : e.obj) {
                if (kv.second.type == JsonValue::Type::Number)
                    slot[kv.first] = kv.second.num;
            }
            out.slots.push_back(std::move(slot));
        }
    }

    if (const JsonValue *v = root.find("journal_emitted");
        v != nullptr && v->type == JsonValue::Type::Number)
        out.journalEmitted = static_cast<uint64_t>(v->num);

    if (const JsonValue *v = root.find("journal")) {
        if (v->type != JsonValue::Type::Array) {
            out.error = "journal not an array";
            return out;
        }
        for (const JsonValue &e : v->arr) {
            const JsonValue *kind =
                e.type == JsonValue::Type::Object ? e.find("kind")
                                                  : nullptr;
            if (kind == nullptr ||
                kind->type != JsonValue::Type::String) {
                out.error = "journal entry without kind";
                return out;
            }
            ParsedFlightBundle::Event ev;
            ev.kind = kind->str;
            if (const JsonValue *r = e.find("reason");
                r != nullptr && r->type == JsonValue::Type::String)
                ev.reason = r->str;
            const auto num = [&](const char *key) -> uint64_t {
                const JsonValue *n = e.find(key);
                return n != nullptr &&
                               n->type == JsonValue::Type::Number
                           ? static_cast<uint64_t>(n->num)
                           : 0;
            };
            ev.tsc = num("tsc");
            ev.seq = num("seq");
            ev.block = num("block");
            ev.arg = num("arg");
            ev.tid = static_cast<uint32_t>(num("tid"));
            ev.core = static_cast<uint32_t>(num("core"));
            out.journal.push_back(std::move(ev));
        }
    }

    out.ok = true;
    return out;
}

} // namespace btrace
