#ifndef ISARIA_OBS_OBS_H
#define ISARIA_OBS_OBS_H

/**
 * @file
 * Pipeline-wide tracing: sessions and scoped spans.
 *
 * Every stage of the pipeline — rule synthesis, phase assignment, the
 * Fig. 3 compile loop, equality saturation (including its parallel
 * search shards), lowering, and the cycle simulator — records through
 * one substrate, each event through one call. The metrics registry
 * (obs/metrics.h) records counts and durations; a trace derives from
 * it: while a session is active, a registry counter add also lands
 * here as a counter event carrying the delta, and a gauge write as one
 * carrying the value written. Spans are this layer's own. A span built
 * with a histogram handle is the one clock of its interval: it records
 * the trace span and the histogram sample from the same clock reads
 * and returns the elapsed seconds for the caller's report.
 *
 * Design constraints, in priority order:
 *
 * 1. **Disabled tracing costs one branch per event site.** There is a
 *    single global "active session" pointer; every emission helper
 *    loads it (relaxed) and returns when null. No name interning, no
 *    clock read, no allocation happens on the disabled path
 *    (`bench/micro_egraph`'s BM_ObsSpanDisabled pins this); only a
 *    timed span reads the clock, since its caller needs the duration.
 * 2. **Recording never perturbs results.** Instrumentation only
 *    observes; traced and untraced runs produce byte-identical
 *    extractions (tests/obs_test.cpp pins this at 1 and 4 threads).
 * 3. **Thread-safe and contention-free.** Each emitting thread owns a
 *    single-producer event ring (obs/ring_buffer.h); the thread-pool
 *    workers of the parallel e-matching engine record without any
 *    shared mutable state on the hot path.
 *
 * Usage:
 *
 *   TraceSession session;
 *   session.activate();
 *   { Span s("eqsat/rebuild"); ... }       // trace-only span
 *   Span run("eqsat/run", runNs);          // timed: span + histogram
 *   report.seconds = run.close();
 *   metricAdd(hits);                       // registry + counter event
 *   session.deactivate();
 *   exportChromeTrace(session, out);       // obs/export.h
 *
 * Binaries opt in through one surface: `--trace=<file>`,
 * `--trace-format={jsonl,chrome}`, `--stats`, or the environment
 * variables ISARIA_TRACE / ISARIA_TRACE_FORMAT / ISARIA_STATS
 * (ObsOptions + ScopedTrace below).
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/ring_buffer.h"

namespace isaria::obs
{

/**
 * Interns @p name into the process-wide trace-name table and returns
 * its id. Interning takes a lock; call it once per site or per run
 * (Span interns lazily, only when a session is active; registry
 * handles intern once, at registration).
 */
std::uint32_t internName(const std::string &name);

/** The string for an interned id (stable for the process lifetime). */
const std::string &nameOf(std::uint32_t id);

/** An event with its emitting thread attached (drain output). */
struct TaggedEvent
{
    Event event;
    /** Session-local thread index (0 = first registered thread). */
    std::uint32_t tid = 0;
};

/**
 * One recording session: a clock epoch plus per-thread event rings.
 *
 * At most one session is active in the process at a time; emission
 * helpers find it through the global active pointer. Sessions may be
 * created, activated, and drained repeatedly; thread registrations
 * are keyed by a session epoch, so a thread outliving one session
 * re-registers cleanly with the next.
 */
class TraceSession
{
  public:
    /** @p ringCapacity events are retained per emitting thread. */
    explicit TraceSession(std::size_t ringCapacity = 1u << 16);
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /** Installs this session as the process-wide recording target. */
    void activate();
    /** Uninstalls (idempotent; automatic on destruction). */
    void deactivate();

    /** The active session, or nullptr — the one-branch fast path. */
    static TraceSession *
    active()
    {
        return activeSession_.load(std::memory_order_acquire);
    }

    /** Nanoseconds from this session's construction to @p time. */
    std::uint64_t
    sinceEpochNs(std::chrono::steady_clock::time_point time) const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                time - epoch_)
                .count());
    }

    /** Records a closed span (called by Span::close). */
    void
    recordSpan(std::uint32_t name, std::uint64_t startNs,
               std::uint64_t durNs, std::int64_t value)
    {
        ring().push({name, EventKind::Span, startNs, durNs, value});
    }

    /** Records a counter event observed now: a registry counter's
     *  delta or a gauge's written value (see obs/metrics.h). */
    void
    recordCounter(std::uint32_t name, std::int64_t value)
    {
        ring().push({name, EventKind::Counter,
                     sinceEpochNs(std::chrono::steady_clock::now()), 0,
                     value});
    }

    /**
     * All retained events, tagged with their thread index and sorted
     * by start time. Call only when no emitting thread is mid-record
     * (between parallel phases / after deactivate) — see
     * EventRing::snapshot.
     */
    std::vector<TaggedEvent> drain() const;

    /** Events lost to ring wraparound, summed over threads. */
    std::uint64_t droppedEvents() const;

    /** Threads that have recorded into this session. */
    std::size_t threadCount() const;

  private:
    /** This thread's ring, registering it on first use. */
    EventRing &ring();
    EventRing &registerThread();

    static std::atomic<TraceSession *> activeSession_;

    std::chrono::steady_clock::time_point epoch_;
    std::size_t ringCapacity_;
    /** Distinguishes sessions for thread-local re-registration. */
    std::uint64_t sessionId_;

    mutable std::mutex registerMutex_;
    std::vector<std::unique_ptr<EventRing>> rings_;
};

/**
 * RAII scoped span. A trace-only span costs one branch when tracing is
 * disabled; when enabled, it interns its name lazily and records one
 * Span event at scope exit.
 *
 * A timed span (built with a HistogramHandle) is the one clock of its
 * interval: it always reads the clock, and close() records the trace
 * span (when a session is active) and the histogram sample (when the
 * registry is on) from the same two reads and returns the elapsed
 * seconds, which callers store in their reports.
 */
class Span
{
    using Clock = std::chrono::steady_clock;

  public:
    explicit Span(const char *name, std::int64_t value = 0)
        : session_(TraceSession::active()), value_(value)
    {
        if (!session_)
            return;
        name_ = internName(name);
        start_ = Clock::now();
    }

    /** A timed span that also samples @p histogram at close. */
    Span(const char *name, HistogramHandle histogram,
         std::int64_t value = 0)
        : session_(TraceSession::active()), value_(value),
          histogram_(histogram), timed_(true), start_(Clock::now())
    {
        if (session_)
            name_ = internName(name);
    }

    /** Span with a pre-interned name (worker-thread hot sites). */
    Span(std::uint32_t nameId, TraceSession *session,
         std::int64_t value = 0)
        : session_(session), name_(nameId), value_(value)
    {
        if (session_)
            start_ = Clock::now();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Updates the span's argument before it closes. */
    void
    setValue(std::int64_t value)
    {
        value_ = value;
    }

    /**
     * Closes the span now instead of at scope exit and returns its
     * elapsed seconds: always for a timed span, and for a trace-only
     * span only when a session recorded it (0 otherwise). Idempotent:
     * a second close returns the first one's value.
     */
    double
    close()
    {
        if (!session_ && !timed_)
            return seconds_;
        auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start_)
                .count());
        if (session_)
            session_->recordSpan(name_, session_->sinceEpochNs(start_),
                                 ns, value_);
        if (timed_)
            metricRecord(histogram_, ns);
        session_ = nullptr;
        timed_ = false;
        seconds_ = static_cast<double>(ns) / 1e9;
        return seconds_;
    }

    ~Span() { close(); }

  private:
    TraceSession *session_;
    std::uint32_t name_ = 0;
    std::int64_t value_ = 0;
    HistogramHandle histogram_;
    bool timed_ = false;
    Clock::time_point start_;
    double seconds_ = 0;
};

// ---------------------------------------------------------------------
// The opt-in surface shared by every binary.

enum class TraceFormat
{
    Jsonl,
    Chrome,
};

/**
 * Parsed --trace/--trace-format/--stats/--metrics/--report +
 * environment options.
 */
struct ObsOptions
{
    /** Trace output path; empty = no trace file. */
    std::string tracePath;
    TraceFormat format = TraceFormat::Jsonl;
    /**
     * Print the stats report to stderr at teardown. The report always
     * carries the always-on metrics registry (counters + histogram
     * quantiles — bounded memory, works on arbitrarily long runs);
     * trace-derived span tables are included only when a session was
     * actually recording (a trace file or alwaysRecord), since those
     * require retaining every event in the rings.
     */
    bool stats = false;
    /**
     * Record trace events even when no trace file was requested.
     * Used by the bench harnesses so their JSON sidecars always
     * carry an aggregated "obs" block.
     */
    bool alwaysRecord = false;
    /** OpenMetrics text-page path (--metrics=FILE / ISARIA_METRICS_FILE);
     *  written at teardown, and periodically when an interval is set.
     *  Empty = no page. */
    std::string metricsPath;
    /** Seconds between periodic OpenMetrics rewrites
     *  (--metrics-interval / ISARIA_METRICS_INTERVAL; 0 = final
     *  write only). */
    double metricsIntervalSeconds = 0;
    /**
     * CompileReport output path (--report=FILE / ISARIA_REPORT).
     * ObsOptions only carries it — the binary owning the
     * CompileStats writes the artifact (see compiler/report.h).
     */
    std::string reportPath;

    /** ISARIA_TRACE / ISARIA_TRACE_FORMAT / ISARIA_STATS /
     *  ISARIA_METRICS_FILE / ISARIA_METRICS_INTERVAL / ISARIA_REPORT. */
    static ObsOptions fromEnv();

    /**
     * Starts from fromEnv(), consumes the recognized flags from
     * argv (compacting it and updating argc), and returns the
     * result. Unrecognized arguments are left for the caller.
     */
    static ObsOptions parse(int &argc, char **argv);

    /** True when any recording (trace file or stats) is requested. */
    bool
    enabled() const
    {
        return !tracePath.empty() || stats;
    }

    /** True when event *retention* is needed: a trace file (or
     *  alwaysRecord) — but not bare --stats, which aggregates from
     *  the bounded metrics registry instead. */
    bool
    wantsSession() const
    {
        return !tracePath.empty() || alwaysRecord;
    }
};

/**
 * The one-liner for main(): owns a TraceSession, activates it when
 * @p options request event retention, starts the periodic OpenMetrics
 * writer when a metrics page was requested, and on destruction
 * deactivates, writes the trace file and metrics page, and prints the
 * stats report.
 */
class ScopedTrace
{
  public:
    explicit ScopedTrace(ObsOptions options);
    ~ScopedTrace();

    ScopedTrace(const ScopedTrace &) = delete;
    ScopedTrace &operator=(const ScopedTrace &) = delete;

    /** The session (recording only if options enabled it). */
    TraceSession &session() { return session_; }
    const ObsOptions &options() const { return options_; }

    /**
     * Writes the trace file / metrics page and prints stats now
     * (idempotent; otherwise runs at destruction). Returns false if
     * an artifact could not be written.
     */
    bool finish();

  private:
    ObsOptions options_;
    TraceSession session_;
    /** Periodic OpenMetrics republisher (see obs/metrics.h); null
     *  unless options_.metricsPath is set. */
    std::unique_ptr<class MetricsSnapshotWriter> metricsWriter_;
    bool finished_ = false;
};

} // namespace isaria::obs

#endif // ISARIA_OBS_OBS_H
