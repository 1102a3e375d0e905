#ifndef ISARIA_OBS_METRICS_H
#define ISARIA_OBS_METRICS_H

/**
 * @file
 * Always-on process metrics: counters, gauges, latency histograms.
 *
 * The registry is the one API that records counts and durations: a
 * process-global MetricsRegistry of monotonic counters, last-value/max
 * gauges, and log-bucketed latency histograms that is *always
 * recording*, holds a fixed, bounded footprint regardless of run
 * length, and can be snapshotted at any point into an OpenMetrics text
 * page or a JSON block. Traces derive from it (obs/obs.h): while a
 * TraceSession is active, metricAdd also pushes a trace counter event
 * carrying the delta, metricSet/metricMax one carrying the value
 * written, and a timed obs::Span samples its histogram from the same
 * clock reads as its trace span.
 *
 * Design constraints, in priority order:
 *
 * 1. **The hot path is one branch plus a handful of relaxed atomic
 *    ops.** Each recording thread owns a private shard; a counter add
 *    is one relaxed load+store on a slot only that thread writes, a
 *    histogram record is a bit-scan plus three such bumps
 *    (bench/micro_egraph's BM_HistogramRecord pins ≤ ~10 ns/site and
 *    BM_MetricsDisabled pins the kill-switch branch). No lock, no
 *    allocation, no clock read happens on the steady-state path; a
 *    thread's first touch of the registry registers its shard under a
 *    mutex, once, and the thread's exit folds it back into the
 *    registry and frees it.
 * 2. **Bounded memory.** Histograms use a fixed HdrHistogram-style
 *    log-linear bucket layout (histogramBucket below): values < 32
 *    are exact, larger values land in one of 16 sub-buckets per
 *    power of two, for kHistogramBuckets total — the whole dynamic
 *    range of uint64 in ~8 KiB per histogram per live thread, with
 *    quantile estimates within 1/32 relative error
 *    (tests/metrics_test.cpp pins the bound adversarially).
 * 3. **Reads never stop writers.** snapshotMetrics() merges the
 *    per-thread shards under the registration mutex while recording
 *    threads keep writing; each shard slot is single-writer, so
 *    relaxed reads observe a consistent-enough monotonic value (a
 *    snapshot is a point-in-time *approximation*, exact once the
 *    writers are quiescent — which is when exports happen).
 * 4. **Recording never perturbs results.** Like tracing, metrics only
 *    observe: metrics-on and metrics-off runs produce byte-identical
 *    extractions (tests/metrics_test.cpp pins this at 1 and 4
 *    threads).
 *
 * Usage at an instrumentation site (handles are cheap POD ids; the
 * function-local static makes registration once-per-process):
 *
 *   static const obs::HistogramHandle h =
 *       obs::metricHistogram("compile/wall_ns");
 *   obs::Span span("compile", h);          // obs/obs.h
 *   stats.seconds = span.close();
 *
 * Export surfaces:
 *
 *   MetricsSnapshot snap = obs::snapshotMetrics();
 *   obs::exportOpenMetrics(snap, out);     // Prometheus text page
 *   obs::metricsJson(snap);                // bench sidecar JSON block
 *   obs::MetricsSnapshotWriter w(path, 5); // periodic page rewrites
 */

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace isaria::obs
{

// ---------------------------------------------------------------------
// Histogram bucket layout (HdrHistogram-style log-linear).

/** Sub-buckets per octave in the logarithmic region (16 → the bucket
 *  width is 1/16 of the bucket's lower bound, so a midpoint estimate
 *  is within 1/32 of the true value). */
inline constexpr std::uint32_t kHistogramSubBuckets = 16;

/** Values below this are counted exactly, one bucket per value. */
inline constexpr std::uint64_t kHistogramExactLimit = 32;

/** First octave of the logarithmic region: values in [32, 64). */
inline constexpr std::uint32_t kHistogramFirstOctave = 5;

/** Total fixed buckets: 32 exact + 16 per octave for octaves 5..63.
 *  Covers the full uint64 range in ~8 KiB of uint64 counts. */
inline constexpr std::uint32_t kHistogramBuckets =
    static_cast<std::uint32_t>(kHistogramExactLimit) +
    (64 - kHistogramFirstOctave) * kHistogramSubBuckets;

/** The bucket index recording @p value (branch-free after one test;
 *  the hot-path cost BM_HistogramRecord pins). */
inline std::uint32_t
histogramBucket(std::uint64_t value)
{
    if (value < kHistogramExactLimit)
        return static_cast<std::uint32_t>(value);
    // Octave = index of the most-significant set bit (≥ 5 here);
    // the next 4 bits below it select one of 16 sub-buckets.
    auto octave = static_cast<std::uint32_t>(
        63 - __builtin_clzll(value));
    auto sub = static_cast<std::uint32_t>(
        (value >> (octave - 4)) - kHistogramSubBuckets);
    return kHistogramExactLimit +
           (octave - kHistogramFirstOctave) * kHistogramSubBuckets +
           sub;
}

/** Smallest value mapping to @p bucket. */
inline std::uint64_t
histogramBucketLow(std::uint32_t bucket)
{
    if (bucket < kHistogramExactLimit)
        return bucket;
    std::uint32_t r = bucket - kHistogramExactLimit;
    std::uint32_t octave = kHistogramFirstOctave + r / kHistogramSubBuckets;
    std::uint64_t sub = r % kHistogramSubBuckets;
    return (kHistogramSubBuckets + sub) << (octave - 4);
}

/** Largest value mapping to @p bucket (inclusive). */
inline std::uint64_t
histogramBucketHigh(std::uint32_t bucket)
{
    if (bucket + 1 >= kHistogramBuckets)
        return ~std::uint64_t{0};
    return histogramBucketLow(bucket + 1) - 1;
}

// ---------------------------------------------------------------------
// Handles. POD ids into the global registry; register once per site
// via a function-local static, then record through them lock-free.

enum class MetricKind
{
    Counter,
    Gauge,
    Histogram,
};

/** Human-readable kind name ("counter" / "gauge" / "histogram"). */
const char *metricKindName(MetricKind kind);

struct CounterHandle
{
    std::uint32_t slot = 0;
    /** The metric's name in the trace-name table (obs/obs.h). */
    std::uint32_t traceName = 0;
};

struct GaugeHandle
{
    std::uint32_t slot = 0;
    /** The metric's name in the trace-name table (obs/obs.h). */
    std::uint32_t traceName = 0;
};

struct HistogramHandle
{
    std::uint32_t slot = 0;
};

/**
 * Registers (or finds) the monotonic counter @p name and returns its
 * handle. Registration takes a lock; do it once per site. Names use
 * the same slash-path convention as trace spans ("compile/degraded").
 */
CounterHandle metricCounter(const char *name);

/** Registers (or finds) the gauge @p name (last-value or max). */
GaugeHandle metricGauge(const char *name);

/** Registers (or finds) the latency histogram @p name. @p unit is a
 *  display hint stamped into exports ("ns", "bytes"; may be empty). */
HistogramHandle metricHistogram(const char *name, const char *unit = "ns");

/** Adds @p delta to a counter (no-op when metrics are disabled); an
 *  active trace session also gets a counter event carrying @p delta. */
void metricAdd(CounterHandle handle, std::uint64_t delta = 1);

/** Sets a gauge to @p value (last-writer-wins across threads); an
 *  active trace session also gets a counter event carrying @p value. */
void metricSet(GaugeHandle handle, std::int64_t value);

/** Raises a gauge to @p value if larger (high-water marks); an active
 *  trace session gets @p value itself, so the trace keeps the curve
 *  beneath the high-water mark. */
void metricMax(GaugeHandle handle, std::int64_t value);

/** Records one @p value observation into a histogram (registry only;
 *  a timed obs::Span adds the matching trace span). */
void metricRecord(HistogramHandle handle, std::uint64_t value);

/**
 * The process-wide kill switch (also ISARIA_METRICS=0 at startup).
 * Metrics default to ON — this exists for overhead A/B measurement
 * and the metrics-on ≡ metrics-off determinism tests, not as the
 * normal operating mode.
 */
void setMetricsEnabled(bool enabled);

/** Current state of the kill switch. */
bool metricsEnabled();

/**
 * Zeroes every counter, gauge, and histogram while keeping all
 * registrations (handles stay valid). For tests and per-compile
 * deltas; takes the registration lock.
 */
void resetMetrics();

// ---------------------------------------------------------------------
// Snapshots and exporters.

/** Merged view of one histogram across all thread shards. */
struct HistogramSummary
{
    std::uint64_t count = 0;
    /** Sum of recorded values (exact, not bucket-estimated). */
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    /** Non-empty buckets only, ascending (bucket index, count). */
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

    /**
     * The estimated value at quantile @p q in [0, 1]: the midpoint of
     * the bucket holding the q-th observation, clamped to [min, max].
     * Within 1/32 relative error of the true order statistic.
     */
    std::uint64_t quantile(double q) const;
};

/** One metric's merged value at snapshot time. */
struct MetricValue
{
    std::string name;
    /** Display-unit hint for histograms ("" otherwise). */
    std::string unit;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t counter = 0;
    std::int64_t gauge = 0;
    HistogramSummary histogram;
};

/** A point-in-time merge of every registered metric. */
struct MetricsSnapshot
{
    /** Sorted by name (deterministic export order). */
    std::vector<MetricValue> metrics;

    /** The metric named @p name, or nullptr. Deleted on rvalues: the
     *  pointer would dangle once the temporary snapshot dies — bind
     *  the snapshot to a local first. */
    const MetricValue *find(std::string_view name) const &;
    const MetricValue *find(std::string_view name) const && = delete;
};

/** Merges all thread shards of the global registry. */
MetricsSnapshot snapshotMetrics();

/**
 * Writes @p snapshot as an OpenMetrics / Prometheus text page:
 * counters as `isaria_<name>_total`, gauges as `isaria_<name>`,
 * histograms as cumulative `_bucket{le="..."}` series plus `_sum` /
 * `_count`, terminated by `# EOF`. Metric names are sanitized
 * ('/', '-' → '_').
 */
void exportOpenMetrics(const MetricsSnapshot &snapshot, std::ostream &out);

/**
 * @p snapshot as a JSON object: {"counters":{name:value},
 * "gauges":{name:value}, "histograms":{name:{count,sum,min,max,
 * p50,p90,p95,p99}}} — the "metrics" block of bench sidecars.
 * Histograms with zero observations are omitted.
 */
std::string metricsJson(const MetricsSnapshot &snapshot);

/** Human-readable table (what `--stats` prints for the registry). */
std::string metricsToString(const MetricsSnapshot &snapshot);

/**
 * Periodically rewrites an OpenMetrics page for long-running
 * processes: every @p intervalSeconds the global registry is
 * snapshotted and atomically republished at @p path (tempfile +
 * rename, so scrapers never see a torn page). @p intervalSeconds <= 0
 * disables the background thread; stop() — or destruction — always
 * writes one final page.
 */
class MetricsSnapshotWriter
{
  public:
    MetricsSnapshotWriter(std::string path, double intervalSeconds);
    ~MetricsSnapshotWriter();

    MetricsSnapshotWriter(const MetricsSnapshotWriter &) = delete;
    MetricsSnapshotWriter &operator=(const MetricsSnapshotWriter &) = delete;

    /** Snapshots and republishes the page now. False on I/O failure. */
    bool writeNow();

    /** Joins the background thread after a final write (idempotent). */
    void stop();

    const std::string &path() const { return path_; }

  private:
    void run();

    std::string path_;
    double intervalSeconds_ = 0;
    bool stopped_ = false;
    /** Background-thread plumbing lives in the impl (pimpl keeps
     *  <thread>/<condition_variable> out of this header). */
    struct Impl;
    Impl *impl_ = nullptr;
};

} // namespace isaria::obs

#endif // ISARIA_OBS_METRICS_H
