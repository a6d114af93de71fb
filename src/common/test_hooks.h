/**
 * @file
 * Deterministic concurrency test hooks.
 *
 * BTrace's lock-free algorithms have a handful of critical windows —
 * between the core-local read and the Allocated fetch_add, between the
 * Confirmed lock and the Allocated reset, between the speculative copy
 * and its re-validation, ... — whose interleavings decide correctness.
 * Uncontrolled thread scheduling hits those windows rarely; tests need
 * to *force* them.
 *
 * BTRACE_TEST_YIELD(Point) marks such a window. When the build enables
 * test hooks (-DBTRACE_TEST_HOOKS=ON, the default for development and
 * CI builds; see the top-level CMakeLists.txt) the macro expands to a
 * single relaxed atomic load and a predicted-not-taken branch; with an
 * installed callback (sim::PreemptionInjector) the arriving thread can
 * be parked, released, or made to yield at exactly that point. With
 * hooks disabled the macro compiles to nothing, so release builds pay
 * zero cost.
 *
 * The callback is installed process-globally. Install/uninstall must
 * not race active tracer threads: tests install before spawning
 * producers and uninstall after joining them (PreemptionInjector's
 * constructor/destructor enforce this shape).
 */

#ifndef BTRACE_COMMON_TEST_HOOKS_H
#define BTRACE_COMMON_TEST_HOOKS_H

#include <atomic>

namespace btrace::hooks {

/** Identifies one critical window in the lock-free core. */
enum class YieldPoint : int
{
    AllocPreReserve = 0,      //!< allocate: core-local read done, Allocated FAA next
    AllocPreBoundaryConfirm,  //!< allocate: tail dummy written, its confirm next
    AllocPreStaleConfirm,     //!< allocate: stale-round dummy written, confirm next
    AdvancePostClaim,         //!< tryAdvance: global FAA done, metadata read next
    AdvancePreLock,           //!< tryAdvance: completeness checked, lock CAS next
    AdvancePreReset,          //!< tryAdvance: Confirmed locked, Allocated reset next
    AdvancePreInstall,        //!< tryAdvance: header confirmed, core-local CAS next
    ClosePreClaim,            //!< closeRound: Allocated read, claim CAS next
    ReadPostCopy,             //!< readBlock: copy done, re-validation next
    ResizePostFreeze,         //!< resize: frozen bit set, quiesce next
    ResizePreDecommit,        //!< resize: epochs synchronized, decommit next
    LeasePreClaim,            //!< lease: core-local read done, span FAA next
    LeasePreCloseConfirm,     //!< leaseClose: span untouched, owner CAS next
    ControlPreSwap,           //!< applyControl: snapshot built, pointer swap next
    Count
};

constexpr int yieldPointCount = static_cast<int>(YieldPoint::Count);

/** Callback invoked by an armed yield point; @p ctx is user state. */
using Hook = void (*)(YieldPoint point, void *ctx);

namespace detail {
// ctx is published before fn (release) and read after it (acquire on
// fn), so a hook observed non-null always sees its own context.
inline std::atomic<Hook> g_fn{nullptr};
inline std::atomic<void *> g_ctx{nullptr};
} // namespace detail

/** Install @p fn/@p ctx as the process-wide hook (nullptr clears). */
inline void
setHook(Hook fn, void *ctx)
{
    if (fn) {
        detail::g_ctx.store(ctx, std::memory_order_release);
        detail::g_fn.store(fn, std::memory_order_release);
    } else {
        detail::g_fn.store(nullptr, std::memory_order_release);
        detail::g_ctx.store(nullptr, std::memory_order_release);
    }
}

/** True iff a hook is currently installed. */
inline bool
hookInstalled()
{
    return detail::g_fn.load(std::memory_order_acquire) != nullptr;
}

/** Called by BTRACE_TEST_YIELD; near-zero cost when no hook is set. */
inline void
maybeYield(YieldPoint p)
{
    const Hook fn = detail::g_fn.load(std::memory_order_acquire);
    if (fn) [[unlikely]]
        fn(p, detail::g_ctx.load(std::memory_order_relaxed));
}

} // namespace btrace::hooks

#if defined(BTRACE_ENABLE_TEST_HOOKS) && BTRACE_ENABLE_TEST_HOOKS
#define BTRACE_TEST_YIELD(point)                                        \
    ::btrace::hooks::maybeYield(::btrace::hooks::YieldPoint::point)
#else
#define BTRACE_TEST_YIELD(point) ((void)0)
#endif

#endif // BTRACE_COMMON_TEST_HOOKS_H
