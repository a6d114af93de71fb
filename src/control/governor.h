/**
 * @file
 * Governor: the metrics-driven feedback loop of the control plane
 * (DESIGN.md §12.3). It closes the loop the paper leaves to the
 * operator: watch the tracer's interval deltas, grow the ring under
 * loss pressure, shrink it under sustained idleness, and throttle
 * sampling *before* events have to be dropped.
 *
 * Shape follows HealthWatchdog: evaluate() is a pure function of one
 * interval's GovernorInput plus small streak state, and returns a list
 * of GovernorDecision values — policy only, no side effects. actuate()
 * is the separate imperative half that applies decisions to a BTrace
 * (tryResize / applyControl), journals each one as a GovernorDecision
 * lifecycle event, and keeps the btrace_governor_* tallies. Callers
 * that only want advice run evaluate() and stop there.
 *
 * Actuation priority, per interval:
 *
 *  1. loss pressure (overwritten positions, i.e. the consumer was
 *     lapped) -> GrowRing toward ringMaxBlocks;
 *  2. loss pressure at the ceiling -> ThrottleSampling stepwise down
 *     to throttleFloor ("throttle before dropping"). A grow that
 *     tryResize refused as Busy (another attachment is live) makes
 *     the current size the ceiling until pressure clears;
 *  3. pressure-free intervals while throttled -> RestoreSampling back
 *     to the pre-throttle rate;
 *  4. sustained low occupancy -> ShrinkRing toward ringMinBlocks.
 */

#ifndef BTRACE_CONTROL_GOVERNOR_H
#define BTRACE_CONTROL_GOVERNOR_H

#include <cstdint>
#include <vector>

#include "core/btrace.h"
#include "obs/metrics.h"

namespace btrace {

/** What the governor decided to do (journal arg = encoded target). */
enum class GovernorAction : uint8_t
{
    None = 0,
    GrowRing,         //!< arg = target numBlocks
    ShrinkRing,       //!< arg = target numBlocks
    ThrottleSampling, //!< arg = new rate in 32.32 fixed point
    RestoreSampling,  //!< arg = restored rate in 32.32 fixed point
};

const char *governorActionName(GovernorAction a);

/** One decision with its encoded target and human-readable cause. */
struct GovernorDecision
{
    GovernorAction action = GovernorAction::None;
    uint64_t arg = 0;          //!< blocks or fixed-point rate (see enum)
    const char *reason = "";   //!< static string, safe to keep
};

/** Policy knobs; defaults are deliberately conservative. */
struct GovernorOptions
{
    /** Loss fraction (overwritten / produced) that triggers growth. */
    double lossRateGrow = 0.01;
    /** Ring multiplication factor per grow step (aligned to A). */
    std::size_t growFactor = 2;
    /** Occupancy fraction below which an interval counts as idle. */
    double occupancyShrink = 0.10;
    /** Consecutive idle intervals before a shrink step. */
    unsigned shrinkIntervals = 3;
    /** Consecutive pressure-free intervals before restoring rate. */
    unsigned restoreIntervals = 3;
    /** Multiplied into the sample rate per throttle step. */
    double throttleStep = 0.5;
    /** The throttle never goes below this rate. */
    double throttleFloor = 0.01;
};

/**
 * One interval's observations. The caller (btraced's drain loop, a
 * test harness) computes the deltas; the governor never reads shared
 * state itself, which keeps evaluate() deterministic and testable.
 */
struct GovernorInput
{
    /** Positions overwritten unread this interval (loss signal). */
    uint64_t overwrittenDelta = 0;
    /** Events successfully recorded this interval. */
    uint64_t recordedDelta = 0;
    /** Produced-bytes / capacity for this interval, in [0, 1]. */
    double occupancy = 0.0;

    std::size_t numBlocks = 0;     //!< current ring size
    std::size_t activeBlocks = 0;  //!< A (resize alignment)
    /** Governor floor/ceiling; from ControlConfig ring bounds, with
     *  zero meaning "A" / "the storage maxBlocks ceiling". */
    std::size_t ringMinBlocks = 0;
    std::size_t ringMaxBlocks = 0;

    double sampleRate = 1.0;  //!< currently effective global rate
    uint64_t seq = 0;         //!< interval sequence (journal arg only)
};

class Governor
{
  public:
    explicit Governor(const GovernorOptions &options = {})
        : opts(options)
    {
    }

    /** Pure policy: decisions for one interval; updates streaks. */
    std::vector<GovernorDecision> evaluate(const GovernorInput &in);

    /**
     * Apply @p decisions to @p bt: GrowRing/ShrinkRing via
     * tryResize() (a refusal — e.g. Busy on a multi-attachment arena
     * — is tallied, journaled with arg 0, and skipped, never fatal),
     * Throttle/Restore via applyControl() on the tracer's current
     * config. Each actuation emits a GovernorDecision journal event
     * when a journal is attached.
     */
    void actuate(BTrace &bt,
                 const std::vector<GovernorDecision> &decisions);

    /** Register btrace_governor_* metrics (counters + gauges). */
    void registerMetrics(MetricsRegistry &registry);

    /** Tallies (also exported as metrics). */
    struct Tallies
    {
        uint64_t decisions = 0;
        uint64_t grows = 0;
        uint64_t shrinks = 0;
        uint64_t throttles = 0;
        uint64_t restores = 0;
        uint64_t failedResizes = 0;
    };
    const Tallies &tallies() const { return tally; }

  private:
    GovernorOptions opts;
    Tallies tally;

    unsigned idleStreak = 0;
    unsigned calmStreak = 0;
    /** Rate to restore once pressure clears; < 0 = not throttled. */
    double preThrottleRate = -1.0;
    /**
     * Ring size at which a grow came back Busy this pressure episode
     * (0 = none): the ceiling until a pressure-free interval.
     */
    std::size_t busyCeiling = 0;

    /** Last-seen gauge values for the metrics plane. */
    double lastSampleRate = 1.0;
    double lastRingBlocks = 0.0;
};

} // namespace btrace

#endif // BTRACE_CONTROL_GOVERNOR_H
