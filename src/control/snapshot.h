/**
 * @file
 * ControlSnapshot: the versioned, immutable form of a ControlConfig
 * that the write path actually consults (DESIGN.md §12).
 *
 * Publication protocol: the ControlPlane builds a fresh snapshot per
 * applied config (rates pre-converted to 32.32 fixed point, interval
 * to nanoseconds), then swaps one atomic pointer on the tracer.
 * Snapshots are never mutated and never freed while the plane lives,
 * so a racing reader that loaded the old pointer keeps using a valid
 * object — no reclamation protocol, no reader registration.
 *
 * Fast-path contract (the same bar as the journal and the
 * profiler): when every knob is at its default the published pointer is
 * *null*, so the leased fast path pays exactly one acquire load and a
 * predicted branch, and adds zero shared RMWs — the sharedRmws
 * counter is asserted byte-identical with and without an attached
 * plane (tests/control/ControlContract). With non-default controls,
 * the decision state (first-K words, budget word, tallies) lives in a
 * plane-owned ControlDecisionState: relaxed RMWs on plane-owned cache
 * lines, never on the tracer's shared words, and never charged to
 * sharedRmws — the §4.1 write protocol is untouched.
 *
 * The sampling decision itself is a deterministic hash of
 * (thread, stamp) against the fixed-point rate, so a replayed
 * workload samples identically run over run — no RNG state, no
 * per-thread divergence.
 */

#ifndef BTRACE_CONTROL_SNAPSHOT_H
#define BTRACE_CONTROL_SNAPSHOT_H

#include <atomic>
#include <chrono>
#include <cstdint>

#include "control/control_config.h"

namespace btrace {

/** Rate as 32.32 fixed point: 1.0 -> 2^32 (always-sample sentinel). */
constexpr uint64_t kControlRateOne = uint64_t(1) << 32;

/** Convert a probability to fixed point, clamped to [0, 2^32]. */
constexpr uint64_t
controlRateToFx(double rate)
{
    if (rate <= 0.0)
        return 0;
    if (rate >= 1.0)
        return kControlRateOne;
    return static_cast<uint64_t>(rate * double(kControlRateOne));
}

constexpr double
controlFxToRate(uint64_t fx)
{
    return fx >= kControlRateOne ? 1.0
                                 : double(fx) / double(kControlRateOne);
}

/**
 * splitmix64 finalizer over (thread, stamp): a deterministic,
 * well-mixed 32-bit draw per event. Same inputs, same decision —
 * replay-stable sampling.
 */
inline uint32_t
controlSampleDraw(uint32_t thread, uint64_t stamp)
{
    uint64_t z = stamp + 0x9e3779b97f4a7c15ull * (uint64_t(thread) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<uint32_t>(z >> 32);
}

/**
 * Mutable decision state of one ControlPlane, shared by every
 * snapshot the plane publishes (the first-K epoch survives a rate
 * change; a republish must not reset the guarantee mid-interval).
 * Each word packs (intervalEpoch << 32 | count); tallies are plain
 * relaxed counters for the btrace_control_* metrics.
 */
struct ControlDecisionState
{
    /** Per-category-slot first-K word: epoch32 | granted-count32. */
    std::array<std::atomic<uint64_t>, kControlCategorySlots> firstK{};
    /** Global record-budget word: epoch32 | recorded-count32. */
    std::atomic<uint64_t> budget{0};

    std::atomic<uint64_t> allowed{0};       //!< events passed the gate
    std::atomic<uint64_t> sampledOut{0};    //!< shed by the sample rate
    std::atomic<uint64_t> budgetDenied{0};  //!< shed by the budget
    std::atomic<uint64_t> firstKGrants{0};  //!< granted by first-K

    static uint64_t
    pack(uint32_t epoch, uint32_t count)
    {
        return (uint64_t(epoch) << 32) | count;
    }
    static uint32_t epochOf(uint64_t w) { return uint32_t(w >> 32); }
    static uint32_t countOf(uint64_t w) { return uint32_t(w); }
};

/** Steady-clock nanoseconds (interval epochs, applied-at stamps). */
inline uint64_t
controlNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * One immutable published control version. Built only by the
 * ControlPlane; the write path reads it through a single relaxed
 * pointer load (Tracer::shouldRecord).
 */
struct ControlSnapshot
{
    uint64_t version = 0;    //!< 1-based, monotonic per arena/plane
    uint64_t appliedNs = 0;  //!< controlNowNs() at publication
    ControlConfig cfg;       //!< the knobs this version carries

    /** Per-slot effective rate in fixed point (override or global). */
    std::array<uint64_t, kControlCategorySlots> rateFx{};
    uint64_t intervalNs = 1000000000ull;

    /** Plane-owned mutable decision state (never null once published). */
    ControlDecisionState *state = nullptr;

    /** Build the derived fields from @p c (plane internals). */
    static ControlSnapshot
    build(uint64_t version, const ControlConfig &c,
          ControlDecisionState *state)
    {
        ControlSnapshot s;
        s.version = version;
        s.appliedNs = controlNowNs();
        s.cfg = c;
        const uint64_t global = controlRateToFx(c.sampleRate);
        for (std::size_t i = 0; i < kControlCategorySlots; ++i)
            s.rateFx[i] = c.categoryRate[i] < 0.0
                              ? global
                              : controlRateToFx(c.categoryRate[i]);
        s.intervalNs = static_cast<uint64_t>(c.intervalSec * 1e9);
        if (s.intervalNs == 0)
            s.intervalNs = 1;
        s.state = state;
        return s;
    }

    /** True when this version changes nothing (published as nullptr). */
    bool isDefault() const { return cfg.isDefault(); }

    /**
     * The gate: should an event of @p category from @p thread at
     * @p stamp be recorded now? Deterministic in (thread, stamp)
     * except for the wall-clock interval epochs of first-K and the
     * budget. Only relaxed operations on plane-owned state; never
     * touches tracer shared words.
     */
    bool
    shouldRecord(uint16_t category, uint32_t thread,
                 uint64_t stamp) const
    {
        const std::size_t slot = category & (kControlCategorySlots - 1);

        // First-K guarantee: the first K events of this slot in the
        // current interval are recorded regardless of the rate. A
        // lost epoch-reset CAS just means another thread reset it;
        // re-read and take the FAA path.
        uint32_t epoch = 0;
        if (cfg.firstK > 0 || cfg.recordBudget > 0)
            epoch = static_cast<uint32_t>(controlNowNs() / intervalNs);
        if (cfg.firstK > 0) {
            std::atomic<uint64_t> &w = state->firstK[slot];
            uint64_t cur = w.load(std::memory_order_relaxed);
            if (ControlDecisionState::epochOf(cur) != epoch)
                w.compare_exchange_strong(
                    cur, ControlDecisionState::pack(epoch, 0),
                    std::memory_order_relaxed,
                    std::memory_order_relaxed);
            cur = w.load(std::memory_order_relaxed);
            if (ControlDecisionState::epochOf(cur) == epoch &&
                ControlDecisionState::countOf(cur) < cfg.firstK) {
                const uint64_t prev =
                    w.fetch_add(1, std::memory_order_relaxed);
                if (ControlDecisionState::epochOf(prev) == epoch &&
                    ControlDecisionState::countOf(prev) < cfg.firstK) {
                    state->firstKGrants.fetch_add(
                        1, std::memory_order_relaxed);
                    return chargeBudget(epoch);
                }
            }
        }

        // The probabilistic gate.
        const uint64_t fx = rateFx[slot];
        if (fx < kControlRateOne &&
            controlSampleDraw(thread, stamp) >= fx) {
            state->sampledOut.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        return chargeBudget(epoch);
    }

  private:
    /** Budget check + allowed tally; @p epoch from the caller. */
    bool
    chargeBudget(uint32_t epoch) const
    {
        if (cfg.recordBudget > 0) {
            std::atomic<uint64_t> &w = state->budget;
            uint64_t cur = w.load(std::memory_order_relaxed);
            if (ControlDecisionState::epochOf(cur) != epoch)
                w.compare_exchange_strong(
                    cur, ControlDecisionState::pack(epoch, 0),
                    std::memory_order_relaxed,
                    std::memory_order_relaxed);
            const uint64_t prev =
                w.fetch_add(1, std::memory_order_relaxed);
            if (ControlDecisionState::epochOf(prev) == epoch &&
                ControlDecisionState::countOf(prev) >=
                    cfg.recordBudget) {
                state->budgetDenied.fetch_add(
                    1, std::memory_order_relaxed);
                return false;
            }
        }
        state->allowed.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
};

} // namespace btrace

#endif // BTRACE_CONTROL_SNAPSHOT_H
