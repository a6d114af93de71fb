#include "control/governor.h"

#include <algorithm>

#include "control/snapshot.h"

namespace btrace {

const char *
governorActionName(GovernorAction a)
{
    switch (a) {
    case GovernorAction::None: return "none";
    case GovernorAction::GrowRing: return "grow_ring";
    case GovernorAction::ShrinkRing: return "shrink_ring";
    case GovernorAction::ThrottleSampling: return "throttle_sampling";
    case GovernorAction::RestoreSampling: return "restore_sampling";
    }
    return "?";
}

namespace {

/** Clamp @p target to a multiple of @p a inside [lo, hi]. */
std::size_t
alignTarget(std::size_t target, std::size_t a, std::size_t lo,
            std::size_t hi)
{
    target = target / a * a;
    return std::min(hi, std::max(lo, target));
}

} // namespace

std::vector<GovernorDecision>
Governor::evaluate(const GovernorInput &in)
{
    std::vector<GovernorDecision> out;
    if (in.numBlocks == 0 || in.activeBlocks == 0)
        return out;

    const std::size_t a = in.activeBlocks;
    const std::size_t lo =
        in.ringMinBlocks ? in.ringMinBlocks : a;
    const std::size_t hi =
        in.ringMaxBlocks ? in.ringMaxBlocks : in.numBlocks;

    lastSampleRate = in.sampleRate;
    lastRingBlocks = double(in.numBlocks);

    const uint64_t produced = in.overwrittenDelta + in.recordedDelta;
    const double loss_rate =
        produced == 0 ? 0.0
                      : double(in.overwrittenDelta) / double(produced);

    if (loss_rate > opts.lossRateGrow) {
        // Pressure: the consumer is being lapped. Capacity first,
        // fidelity second — only throttle once the ring is maxed.
        idleStreak = 0;
        calmStreak = 0;
        // A grow refused as Busy in this episode set a lower ceiling:
        // throttle instead of asking again.
        const std::size_t ceiling =
            busyCeiling != 0 ? std::min(hi, busyCeiling) : hi;
        if (in.numBlocks < ceiling) {
            const std::size_t target = alignTarget(
                std::max(in.numBlocks * opts.growFactor,
                         in.numBlocks + a),
                a, lo, ceiling);
            if (target > in.numBlocks)
                out.push_back({GovernorAction::GrowRing, target,
                               "loss pressure: grow ring"});
        } else if (in.sampleRate > opts.throttleFloor) {
            if (preThrottleRate < 0.0)
                preThrottleRate = in.sampleRate;
            const double next = std::max(
                opts.throttleFloor, in.sampleRate * opts.throttleStep);
            out.push_back({GovernorAction::ThrottleSampling,
                           controlRateToFx(next),
                           "loss pressure at ring ceiling: throttle "
                           "before dropping"});
        }
        return out;
    }

    // Pressure-free interval: the episode is over, and a later one
    // tries the grow again.
    busyCeiling = 0;
    if (preThrottleRate >= 0.0 && ++calmStreak >= opts.restoreIntervals) {
        out.push_back({GovernorAction::RestoreSampling,
                       controlRateToFx(preThrottleRate),
                       "pressure cleared: restore sample rate"});
        preThrottleRate = -1.0;
        calmStreak = 0;
    }

    if (in.occupancy < opts.occupancyShrink && in.numBlocks > lo) {
        if (++idleStreak >= opts.shrinkIntervals) {
            const std::size_t target = alignTarget(
                in.numBlocks / 2, a, lo, std::max(lo, hi));
            if (target < in.numBlocks)
                out.push_back({GovernorAction::ShrinkRing, target,
                               "sustained low occupancy: shrink ring"});
            idleStreak = 0;
        }
    } else {
        idleStreak = 0;
    }
    return out;
}

void
Governor::actuate(BTrace &bt,
                  const std::vector<GovernorDecision> &decisions)
{
    for (const GovernorDecision &d : decisions) {
        bool ok = true;
        switch (d.action) {
        case GovernorAction::GrowRing:
        case GovernorAction::ShrinkRing: {
            const Status st =
                bt.tryResize(static_cast<std::size_t>(d.arg));
            ok = st.ok();
            if (ok) {
                lastRingBlocks = double(d.arg);
                if (d.action == GovernorAction::GrowRing)
                    ++tally.grows;
                else
                    ++tally.shrinks;
            } else {
                ++tally.failedResizes;
                if (d.action == GovernorAction::GrowRing &&
                    st.code() == StatusCode::Busy)
                    busyCeiling = bt.numBlocks();
            }
            break;
        }
        case GovernorAction::ThrottleSampling:
        case GovernorAction::RestoreSampling: {
            ControlConfig c = bt.controlPlane().current();
            c.sampleRate = controlFxToRate(d.arg);
            ok = bt.applyControl(c).ok();
            if (ok) {
                lastSampleRate = c.sampleRate;
                if (d.action == GovernorAction::ThrottleSampling)
                    ++tally.throttles;
                else
                    ++tally.restores;
            }
            break;
        }
        case GovernorAction::None:
            continue;
        }
        ++tally.decisions;
        if (EventJournal *j = bt.attachedJournal())
            j->emit(JournalEventKind::GovernorDecision,
                    EventJournal::kNoCore,
                    static_cast<uint64_t>(d.action),
                    ok ? d.arg : 0);
    }
}

void
Governor::registerMetrics(MetricsRegistry &registry)
{
    registry.addCounter(
        "btrace_governor_decisions_total",
        "Governor decisions actuated (all actions)",
        [this] { return double(tally.decisions); });
    registry.addCounter("btrace_governor_grows_total",
                        "Ring grow actuations",
                        [this] { return double(tally.grows); });
    registry.addCounter("btrace_governor_shrinks_total",
                        "Ring shrink actuations",
                        [this] { return double(tally.shrinks); });
    registry.addCounter("btrace_governor_throttles_total",
                        "Sampling throttle actuations",
                        [this] { return double(tally.throttles); });
    registry.addCounter("btrace_governor_restores_total",
                        "Sampling restore actuations",
                        [this] { return double(tally.restores); });
    registry.addCounter(
        "btrace_governor_failed_resizes_total",
        "Resize actuations refused by the tracer (e.g. Busy)",
        [this] { return double(tally.failedResizes); });
    registry.addGauge("btrace_governor_sample_rate",
                      "Effective global sample rate the governor saw "
                      "or set last",
                      [this] { return lastSampleRate; });
    registry.addGauge("btrace_governor_ring_blocks",
                      "Ring size (blocks) the governor saw or set last",
                      [this] { return lastRingBlocks; });
}

} // namespace btrace
