/**
 * @file
 * btrace::Session — the public entry point of the tracer (DESIGN.md
 * §11).
 *
 * A Session wraps one BTrace attachment behind a factory API that
 * reports failures as Status values instead of dying:
 *
 *   - Session::create(cfg)   — create a tracer (and, for shm/file
 *     storage, the shared arena that other processes can join);
 *   - Session::attachFile(p) — join the tracer living in the named
 *     file arena (the btraced rendezvous);
 *   - Session::attachFd(fd)  — join via an inherited/passed arena fd
 *     (the LTTng-style session-daemon handoff).
 *
 * Raw BTrace construction, shareFd() plumbing and attachShmArena()
 * remain available as internals, but sessions are the supported
 * surface: they validate the configuration, check arena compatibility
 * (magic, version, geometry, control region, generation) and never
 * BTRACE_FATAL on a malformed input.
 */

#ifndef BTRACE_CORE_SESSION_H
#define BTRACE_CORE_SESSION_H

#include <memory>
#include <string>

#include "common/status.h"
#include "core/btrace.h"

namespace btrace {

/** Options for Session::attachFile / Session::attachFd. */
struct AttachOptions
{
    /**
     * When nonzero, the attachment must draw exactly this generation
     * number from the arena header, else Incompatible. Lets a
     * coordinator that planned generation numbers (create = 1, first
     * attach = 2, ...) detect that the arena was recycled or that
     * another attacher raced in between.
     */
    uint64_t expectGeneration = 0;
};

/**
 * One attachment of a (possibly multi-process) tracer. Move-only;
 * destroying the session detaches (the owner additionally stamps the
 * clean-shutdown mark). Access the tracer with operator-> or
 * tracer().
 */
class Session
{
  public:
    /**
     * Create a tracer from @p cfg. Configuration problems come back
     * as InvalidArgument (BTraceConfig::validate's documented rules);
     * OS-level storage failures (unopenable path, failed mmap) on the
     * arena backends come back as IoError.
     */
    static Expected<Session> create(const BTraceConfig &cfg);

    /**
     * Attach to the tracer inside the named file arena: NotFound for
     * a missing path, Corruption/Incompatible for a damaged or
     * foreign file, Busy while the owner is still initializing or
     * when the attach registry is full.
     */
    static Expected<Session> attachFile(const std::string &path,
                                        const AttachOptions &opts = {});

    /**
     * Attach via an arena fd obtained from Session::shareFd() in the
     * creating process (inherited across fork/exec, or passed over a
     * unix socket). Same error contract as attachFile.
     */
    static Expected<Session> attachFd(int fd,
                                      const AttachOptions &opts = {});

    /** Empty session (valid() == false); Expected<Session> plumbing. */
    Session() = default;

    Session(Session &&) = default;
    Session &operator=(Session &&) = default;
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    bool valid() const { return bt != nullptr; }

    BTrace &tracer() { return *bt; }
    const BTrace &tracer() const { return *bt; }
    BTrace *operator->() { return bt.get(); }
    const BTrace *operator->() const { return bt.get(); }

    /** True for the attachment that created the arena. */
    bool owner() const { return bt->arenaOwner(); }

    /** This attachment's arena generation (0 = private backend). */
    uint64_t generation() const { return bt->attachGeneration(); }

    /**
     * Arena fd for handing to another process (-1 on the private
     * backend). The fd stays owned by the session's backend.
     */
    int shareFd() const { return bt->storageBackend()->shareFd(); }

    /** Reclaim leases and registry slots of dead attachments. */
    SweepReport sweepDeadOwners() { return bt->sweepDeadOwners(); }

    /**
     * Runtime reconfiguration (DESIGN.md §12): validate and publish a
     * new control version for this attachment; on a shared arena it
     * is also written to the arena control page for everyone else.
     */
    Status applyControl(const ControlConfig &c)
    {
        return bt->applyControl(c);
    }

    /**
     * Adopt a control version published by another attachment, if
     * any. Two loads, no lock, when nothing changed; call at a poll
     * cadence (lease renewal, drain tick), never per event.
     */
    bool pollControl() { return bt->pollControl(); }

  private:
    explicit Session(std::unique_ptr<BTrace> t) : bt(std::move(t)) {}

    std::unique_ptr<BTrace> bt;
};

} // namespace btrace

#endif // BTRACE_CORE_SESSION_H
