#include "trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>

namespace perfbench
{

namespace
{

/** Per-thread stack of open span indices (parent links). */
thread_local std::vector<std::int64_t> openSpans;

std::uint32_t
threadNumber()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local std::uint32_t mine = next.fetch_add(1);
    return mine;
}

double
nanosSince(Clock::time_point origin, Clock::time_point t)
{
    return std::chrono::duration<double, std::nano>(t - origin).count();
}

} // namespace

std::int64_t
Tracer::open(const char *name, std::int64_t op)
{
    std::int64_t parent = openSpans.empty() ? -1 : openSpans.back();
    std::lock_guard<std::mutex> lock(mutex_);
    if (op < 0 && parent >= 0)
        op = records_[static_cast<std::size_t>(parent)].op;
    auto index = static_cast<std::int64_t>(records_.size());
    records_.push_back(
        Record{name, op, parent, threadNumber(), Clock::now(), {}});
    openSpans.push_back(index);
    return index;
}

void
Tracer::close(std::int64_t index)
{
    Clock::time_point end = Clock::now();
    openSpans.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    records_[static_cast<std::size_t>(index)].end = end;
}

double
Tracer::selfSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> self(records_.size(), 0);
    for (std::size_t i = 0; i < records_.size(); ++i)
        self[i] = secondsBetween(records_[i].start, records_[i].end);
    for (const Record &r : records_) {
        if (r.parent >= 0)
            self[static_cast<std::size_t>(r.parent)] -=
                secondsBetween(r.start, r.end);
    }
    double total = 0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        if (name == records_[i].name)
            total += self[i];
    }
    return total;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Record &r : records_) {
        if (name == r.name)
            out.push_back(secondsBetween(r.start, r.end));
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out)
        return false;
    Clock::time_point origin = processStart();
    out << "{\"clock\":\"ns since process start\",\"spans\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        char line[256];
        std::snprintf(line, sizeof line,
                      "%s\n{\"id\":%zu,\"name\":\"%s\",\"op\":%lld,"
                      "\"parent\":%lld,\"thread\":%u,\"start_ns\":%.0f,"
                      "\"end_ns\":%.0f}",
                      i ? "," : "", i, r.name,
                      static_cast<long long>(r.op),
                      static_cast<long long>(r.parent), r.thread,
                      nanosSince(origin, r.start),
                      nanosSince(origin, r.end));
        out << line;
    }
    out << "\n]}\n";
    return static_cast<bool>(out.flush());
}

} // namespace perfbench
