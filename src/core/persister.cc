#include "core/persister.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "trace/trace_file.h"

namespace btrace {

TracePersister::TracePersister(Tracer &tracer_, const std::string &path_,
                               const PersisterOptions &options)
    : tracer(tracer_), opt(options), path(path_)
{
    fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                0644);
    if (fd < 0)
        BTRACE_FATAL("cannot open persistence file");
    if (Status st = writeTraceFileHeader(fd); !st.ok())
        BTRACE_FATAL("cannot write persistence header");
    worker = std::thread([this]() { run(); });
}

TracePersister::~TracePersister()
{
    stop();
}

void
TracePersister::run()
{
    const auto interval = std::chrono::duration<double>(
        opt.pollIntervalSec);
    while (!stopping.load(std::memory_order_acquire)) {
        persistPass(DumpOptions{opt.closeActive, false});
        std::this_thread::sleep_for(interval);
    }
}

void
TracePersister::persistPass(const DumpOptions &opts)
{
    tracer.dumpFrom(cursor, opts, pass);
    if (pass.entries.empty())
        return;
    if (Status st = appendTraceRecords(fd, pass.entries, records);
        !st.ok())
        BTRACE_FATAL("short write to persistence file");
    persisted.fetch_add(pass.entries.size(), std::memory_order_acq_rel);
}

void
TracePersister::stop()
{
    if (fd < 0)
        return;
    stopping.store(true, std::memory_order_release);
    if (worker.joinable())
        worker.join();
    // Final poll with close-on-read so the newest entries land too;
    // the last one, so it walks past blocks a writer still holds.
    persistPass(DumpOptions{true, false, true});
    ::close(fd);
    fd = -1;
}

Expected<std::vector<DumpEntry>>
TracePersister::tryLoad(const std::string &path)
{
    return readTraceFile(path);
}

std::vector<DumpEntry>
TracePersister::load(const std::string &path)
{
    auto r = readTraceFile(path);
    if (!r.ok()) {
        std::fprintf(stderr, "btrace: %s\n",
                     r.status().toString().c_str());
        BTRACE_FATAL("cannot load persisted trace");
    }
    return r.take();
}

} // namespace btrace
