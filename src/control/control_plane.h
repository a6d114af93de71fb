/**
 * @file
 * ControlPlane: owns the published ControlSnapshot chain of one
 * tracer attachment and the arena control page protocol (DESIGN.md
 * §12).
 *
 * Three reconfiguration sources converge here:
 *
 *  - programmatic: Session::applyControl() -> BTrace::applyControl()
 *    -> ControlPlane::apply();
 *  - file-driven: btraced / replay parse a control file
 *    (control/control_file.h) and call the same apply();
 *  - cross-process: apply() on a shared arena also serializes the
 *    snapshot into the arena's ControlPage; every other attachment
 *    picks it up via poll() (a lock-free load of the publish counter
 *    per poll, called from lease-renewal cadence, never per event).
 *
 * Snapshot lifetime: the plane keeps every snapshot it ever published
 * in a history vector and frees nothing until destruction. A reader
 * that loaded an old pointer therefore never races reclamation; the
 * memory cost is one small struct per *reconfiguration*, which is
 * operator-rate, not event-rate. The history also feeds
 * `btrace_inspect --control` and the version gauges.
 *
 * Default elision: a snapshot whose config is all-defaults is
 * published to the tracer as a *null* pointer, which is what keeps
 * the fast path byte-identical (sharedRmws and instruction-for-
 * instruction) to a build without the plane. The snapshot still
 * exists in history and on the arena page — version numbering is
 * unaffected.
 */

#ifndef BTRACE_CONTROL_CONTROL_PLANE_H
#define BTRACE_CONTROL_CONTROL_PLANE_H

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "control/snapshot.h"
#include "core/arena_control.h"
#include "trace/tracer.h"

namespace btrace {

/** Geometry the plane validates ring bounds against. */
struct ControlGeometry
{
    std::size_t activeBlocks = 0;  //!< A
    std::size_t maxBlocks = 0;     //!< hard ceiling (cfg.effectiveMaxBlocks)
};

class ControlPlane
{
  public:
    /**
     * Bind to @p tracer with @p page as the shared control page
     * (nullptr on the private backend). @p owner_init: wipe and
     * re-initialize the page (arena creation); otherwise adopt
     * whatever version the page currently publishes. The initial
     * config is published as version 1 by the owner.
     */
    ControlPlane(Tracer &tracer, const ControlGeometry &geometry,
                 ControlPage *page, bool owner_init,
                 const ControlConfig &initial);

    /** Detaches the published pointer from the tracer. */
    ~ControlPlane();

    ControlPlane(const ControlPlane &) = delete;
    ControlPlane &operator=(const ControlPlane &) = delete;

    /**
     * Validate @p next (ControlConfig::validate plus the ring-bound
     * geometry rules) and publish it as the next version — to this
     * tracer immediately, and to the arena control page when one is
     * bound, so other attachments converge on their next poll().
     */
    Status apply(const ControlConfig &next);

    /**
     * Pick up a version another attachment published to the arena
     * page. Two loads and a compare, no lock, when nothing changed.
     * Returns true when a new version was adopted. Call at poll
     * cadence (lease renewal, drain ticks), never per event.
     */
    bool poll();

    /** The currently effective config (last applied or adopted). */
    ControlConfig current() const;

    /** Version of the currently effective snapshot (0 = none yet). */
    uint64_t version() const;

    /** Published snapshots, oldest first (inspection, tests). */
    std::vector<const ControlSnapshot *> history() const;

    /** The plane's decision-state tallies (metrics plane). */
    const ControlDecisionState &decisions() const { return state; }

    /** Validate ring bounds against a geometry (shared with config). */
    static Status validateBounds(const ControlConfig &c,
                                 const ControlGeometry &g);

  private:
    /** Build, chain, and swap in a snapshot for @p c. */
    void publish(const ControlConfig &c, uint64_t version,
                 bool write_page);

    /** Serialize @p s into the page entry its version claims. */
    void writePage(const ControlSnapshot &s);

    Tracer &tracer;
    ControlGeometry geo;
    ControlPage *page = nullptr;

    mutable std::mutex mu;
    std::vector<std::unique_ptr<ControlSnapshot>> snaps;
    /**
     * Newest page version this attachment serves. Written under mu and
     * only after publish() swapped the snapshot in, so the lock-free
     * check in poll() never skips a version the tracer is not yet
     * serving.
     */
    std::atomic<uint64_t> lastSeenPageVersion{0};
    ControlDecisionState state;
};

} // namespace btrace

#endif // BTRACE_CONTROL_CONTROL_PLANE_H
