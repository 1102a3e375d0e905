#ifndef ISARIA_OBS_RING_BUFFER_H
#define ISARIA_OBS_RING_BUFFER_H

/**
 * @file
 * Single-producer event ring buffer for the tracing substrate.
 *
 * Each thread that emits trace events owns exactly one ring: the
 * owning thread writes, and the exporter reads after the parallel
 * phase has joined (parallelFor's completion is a happens-before
 * edge, and the head index is published with release/acquire), so
 * recording is wait-free and contention-free — the same discipline as
 * the work-stealing pool's packed atomic ranges in
 * src/support/thread_pool.h.
 *
 * A full ring overwrites its oldest events rather than blocking the
 * producer: tracing must never stall the traced computation. The
 * overwritten count is reported so exporters can flag truncation.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace isaria::obs
{

/** What one recorded event is. */
enum class EventKind : std::uint8_t
{
    /** A closed scoped region: [startNs, startNs + durNs). */
    Span,
    /** A registry counter's delta or a gauge's written value, at
     *  startNs (see obs/metrics.h). */
    Counter,
};

/** One trace event; the thread id lives on the owning ring. */
struct Event
{
    /** Interned name id (see obs.h). */
    std::uint32_t name = 0;
    EventKind kind = EventKind::Span;
    /** Nanoseconds since session start. */
    std::uint64_t startNs = 0;
    /** Span duration in nanoseconds (0 for counters). */
    std::uint64_t durNs = 0;
    /** Counter sample or span argument (rule index, iteration, ...). */
    std::int64_t value = 0;
};

class EventRing
{
  public:
    /** Capacity is rounded up to a power of two (min 8). */
    explicit EventRing(std::size_t capacity)
    {
        std::size_t cap = 8;
        while (cap < capacity)
            cap <<= 1;
        slots_.resize(cap);
    }

    EventRing(const EventRing &) = delete;
    EventRing &operator=(const EventRing &) = delete;

    std::size_t capacity() const { return slots_.size(); }

    /** Records @p event; single producer (the owning thread) only. */
    void
    push(const Event &event)
    {
        std::uint64_t head = head_.load(std::memory_order_relaxed);
        slots_[head & (slots_.size() - 1)] = event;
        head_.store(head + 1, std::memory_order_release);
    }

    /** Total events ever pushed (not capped at capacity). */
    std::uint64_t
    totalPushed() const
    {
        return head_.load(std::memory_order_acquire);
    }

    /** Events lost to wraparound so far. */
    std::uint64_t
    dropped() const
    {
        std::uint64_t total = totalPushed();
        return total > slots_.size() ? total - slots_.size() : 0;
    }

    /**
     * Appends the retained events, oldest first, to @p out. Safe to
     * call from another thread once the producer has quiesced (e.g.
     * after a thread-pool join); concurrent pushes may tear the
     * oldest retained slots, so exporters drain only at phase
     * boundaries.
     */
    void
    snapshot(std::vector<Event> &out) const
    {
        std::uint64_t head = totalPushed();
        std::uint64_t begin =
            head > slots_.size() ? head - slots_.size() : 0;
        out.reserve(out.size() + static_cast<std::size_t>(head - begin));
        for (std::uint64_t i = begin; i < head; ++i)
            out.push_back(slots_[i & (slots_.size() - 1)]);
    }

  private:
    std::vector<Event> slots_;
    std::atomic<std::uint64_t> head_{0};
};

} // namespace isaria::obs

#endif // ISARIA_OBS_RING_BUFFER_H
