#include "core/session.h"

namespace btrace {

namespace {

/**
 * Shared tail of the attach paths: enforce the generation contract,
 * then hand the backend to BTrace::attachArena.
 */
Expected<std::unique_ptr<BTrace>>
finishAttach(std::unique_ptr<StorageBackend> backend,
             const AttachOptions &opts)
{
    if (opts.expectGeneration != 0 &&
        backend->attachGeneration() != opts.expectGeneration)
        return errIncompatible(
            "attach drew generation " +
            std::to_string(backend->attachGeneration()) +
            ", expected " + std::to_string(opts.expectGeneration) +
            " (arena recycled, or another attacher raced in)");
    return BTrace::attachArena(std::move(backend));
}

} // namespace

Expected<Session>
Session::create(const BTraceConfig &cfg)
{
    if (Status st = cfg.validate(); !st.ok())
        return st;
    // Storage construction happens inside the BTrace constructor;
    // with the configuration pre-validated, the remaining failure
    // modes are OS-level (ENOSPC, unopenable path) and pre-date this
    // API as fatals. Probe the backend first for the file backend's
    // common case — an unwritable path — so it reports cleanly.
    if (cfg.storage == StorageKind::File && !cfg.arenaPath.empty()) {
        StorageOptions probe;
        probe.kind = cfg.storage;
        probe.bytes = cfg.effectiveMaxBlocks() * cfg.blockSize;
        probe.path = cfg.arenaPath;
        probe.ctrlBytes = ctrlBytesFor(cfg.cores, cfg.activeBlocks);
        auto b = tryMakeStorageBackend(probe);
        if (!b.ok())
            return b.status();
        // Drop the probe backend; BTrace re-creates the arena (the
        // create path truncates, so nothing from the probe survives).
    }
    return Expected<Session>(
        Session(std::make_unique<BTrace>(cfg)));
}

Expected<Session>
Session::attachFile(const std::string &path, const AttachOptions &opts)
{
    auto backend = tryAttachFileArena(path);
    if (!backend.ok())
        return backend.status();
    auto bt = finishAttach(backend.take(), opts);
    if (!bt.ok())
        return bt.status();
    return Expected<Session>(Session(bt.take()));
}

Expected<Session>
Session::attachFd(int fd, const AttachOptions &opts)
{
    auto backend = tryAttachShmArena(fd);
    if (!backend.ok())
        return backend.status();
    auto bt = finishAttach(backend.take(), opts);
    if (!bt.ok())
        return bt.status();
    return Expected<Session>(Session(bt.take()));
}

} // namespace btrace
