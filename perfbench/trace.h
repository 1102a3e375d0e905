#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

/**
 * @file
 * The benchmark's own span recorder.
 *
 * A span is opened around each call the benchmark makes into a layer
 * of the library. It records its name, start, end, its parent (the
 * span open on the same thread when it began) and the operation it
 * belongs to; every span of one operation carries that operation's
 * id. Spans stay in memory and are written out once, when the run
 * ends. A disabled tracer records nothing: untraced runs pay one
 * branch per span.
 */

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench
{

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Total self time of the spans named @p name, in seconds: each
     *  span's duration minus the part covered by its child spans. */
    double selfSeconds(const std::string &name) const;

    /** Durations of the spans named @p name, in recording order. */
    std::vector<double> durations(const std::string &name) const;

    /** Writes every span as JSON to @p path; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    friend class Span;

    struct Record
    {
        const char *name;
        std::int64_t op;
        std::int64_t parent;
        std::uint32_t thread;
        Clock::time_point start;
        Clock::time_point end;
    };

    std::int64_t open(const char *name, std::int64_t op);
    void close(std::int64_t index);

    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Record> records_;
};

/**
 * RAII span. @p op < 0 inherits the operation id of the enclosing
 * span on this thread (-1 outside any operation).
 */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, std::int64_t op = -1)
        : tracer_(tracer),
          index_(tracer.enabled() ? tracer.open(name, op) : -1)
    {}
    ~Span()
    {
        if (index_ >= 0)
            tracer_.close(index_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    std::int64_t index_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
