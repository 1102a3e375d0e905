// Tests for the always-on metrics tier (src/obs/metrics.h): the
// HdrHistogram-style bucket layout, quantile relative-error bound
// (adversarially), thread-shard merge determinism, the OpenMetrics
// exporter (checked with an in-test parser, not substrings), the
// kill switch / reset semantics, and the invariant that metrics-on
// and metrics-off runs produce byte-identical extractions.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/diospyros.h"
#include "egraph/extract.h"
#include "egraph/runner.h"
#include "frontend/kernels.h"
#include "isa/cost_model.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "phase/phase.h"
#include "term/sexpr.h"

namespace isaria
{
namespace
{

/** Restores the kill switch no matter how the test exits. */
struct MetricsEnabledGuard
{
    bool saved = obs::metricsEnabled();
    ~MetricsEnabledGuard() { obs::setMetricsEnabled(saved); }
};

// ---------------------------------------------------------------------
// Bucket layout.

TEST(MetricsBuckets, LayoutIsExhaustivelyConsistent)
{
    // Every bucket round-trips through its own bounds, bounds are
    // contiguous, and lows are strictly increasing.
    for (std::uint32_t b = 0; b < obs::kHistogramBuckets; ++b) {
        std::uint64_t lo = obs::histogramBucketLow(b);
        std::uint64_t hi = obs::histogramBucketHigh(b);
        EXPECT_LE(lo, hi) << "bucket " << b;
        EXPECT_EQ(obs::histogramBucket(lo), b);
        EXPECT_EQ(obs::histogramBucket(hi), b);
        if (b + 1 < obs::kHistogramBuckets) {
            EXPECT_EQ(hi + 1, obs::histogramBucketLow(b + 1))
                << "gap after bucket " << b;
        } else {
            EXPECT_EQ(hi, ~std::uint64_t{0});
        }
    }
}

TEST(MetricsBuckets, BoundaryValues)
{
    // The exact region is identity.
    for (std::uint64_t v = 0; v < obs::kHistogramExactLimit; ++v)
        EXPECT_EQ(obs::histogramBucket(v), v);
    // First logarithmic bucket starts exactly at the exact limit.
    EXPECT_EQ(obs::histogramBucket(32), 32u);
    EXPECT_EQ(obs::histogramBucketLow(32), 32u);
    // Either side of a power of two lands in adjacent octaves.
    EXPECT_EQ(obs::histogramBucket(63) + 1, obs::histogramBucket(64));
    EXPECT_EQ(obs::histogramBucket(127) + 1, obs::histogramBucket(128));
    // The top of the range is representable.
    EXPECT_EQ(obs::histogramBucket(~std::uint64_t{0}),
              obs::kHistogramBuckets - 1);
    EXPECT_EQ(obs::histogramBucket(std::uint64_t{1} << 63),
              obs::kHistogramBuckets - obs::kHistogramSubBuckets);
}

// ---------------------------------------------------------------------
// Quantile relative error, adversarially.

/** The true nearest-rank order statistic with the summary's rank
 *  convention (rank = floor(q*count), clamped to [1, count]). */
std::uint64_t
trueQuantile(std::vector<std::uint64_t> values, double q)
{
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(values.size()));
    rank = std::clamp<std::uint64_t>(rank, 1, values.size());
    return values[rank - 1];
}

/** Records @p values into a fresh histogram and checks every
 *  requested quantile against the documented 1/32 relative bound. */
void
checkQuantiles(const char *name,
               const std::vector<std::uint64_t> &values)
{
    obs::HistogramHandle h = obs::metricHistogram(name);
    for (std::uint64_t v : values)
        obs::metricRecord(h, v);
    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    const obs::MetricValue *m = snap.find(name);
    ASSERT_NE(m, nullptr);
    ASSERT_EQ(m->histogram.count, values.size());
    for (double q : {0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0}) {
        std::uint64_t truth = trueQuantile(values, q);
        std::uint64_t est = m->histogram.quantile(q);
        std::uint64_t err = est > truth ? est - truth : truth - est;
        // Bucket width is at most low/16, the midpoint is within half
        // a width, so the estimate is within 1/32 (+1 for integer
        // midpoint rounding) of the true order statistic.
        EXPECT_LE(err * 32, truth + 32)
            << name << " q=" << q << " est=" << est
            << " truth=" << truth;
    }
}

TEST(MetricsQuantiles, AdversarialDistributions)
{
    // Mass piled exactly on bucket boundaries — the worst case for a
    // midpoint estimator.
    std::vector<std::uint64_t> boundaries;
    for (std::uint32_t b = 20; b < 400; b += 7)
        boundaries.push_back(obs::histogramBucketLow(b));
    checkQuantiles("mtest/q/boundaries", boundaries);

    // Geometric spread across many octaves.
    std::vector<std::uint64_t> geometric;
    for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40); v *= 3)
        geometric.push_back(v);
    checkQuantiles("mtest/q/geometric", geometric);

    // Heavy cluster + far outlier: quantiles below the tail must not
    // be dragged toward it.
    std::vector<std::uint64_t> outlier(999, 1000);
    outlier.push_back(std::uint64_t{1} << 40);
    checkQuantiles("mtest/q/outlier", outlier);

    // All-identical: every quantile is exact (clamped to min==max).
    checkQuantiles("mtest/q/constant",
                   std::vector<std::uint64_t>(100, 123456789));

    // Small exact-region values: zero error there.
    std::vector<std::uint64_t> tiny;
    for (std::uint64_t i = 0; i < 320; ++i)
        tiny.push_back(i % obs::kHistogramExactLimit);
    checkQuantiles("mtest/q/tiny", tiny);
}

TEST(MetricsQuantiles, OrderedAndWithinRange)
{
    obs::HistogramHandle h = obs::metricHistogram("mtest/q/ordered");
    for (std::uint64_t v = 1; v <= 10000; ++v)
        obs::metricRecord(h, v * 37);
    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    const obs::MetricValue *m = snap.find("mtest/q/ordered");
    ASSERT_NE(m, nullptr);
    const obs::HistogramSummary &s = m->histogram;
    std::uint64_t last = s.min;
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
        std::uint64_t est = s.quantile(q);
        EXPECT_GE(est, last) << "q=" << q;
        EXPECT_LE(est, s.max);
        last = est;
    }
}

// ---------------------------------------------------------------------
// Merge across thread shards.

TEST(MetricsShards, MergeIsExactAndDeterministic)
{
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = 1000;
    obs::HistogramHandle h = obs::metricHistogram("mtest/shard/hist");
    obs::CounterHandle c = obs::metricCounter("mtest/shard/count");

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (std::uint64_t i = 1; i <= kPerThread; ++i) {
                obs::metricRecord(h, i * (t + 1));
                obs::metricAdd(c, 1);
            }
        });
    }
    for (std::thread &w : workers)
        w.join();

    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    const obs::MetricValue *hist = snap.find("mtest/shard/hist");
    const obs::MetricValue *count = snap.find("mtest/shard/count");
    ASSERT_NE(hist, nullptr);
    ASSERT_NE(count, nullptr);
    EXPECT_EQ(count->counter, kThreads * kPerThread);
    EXPECT_EQ(hist->histogram.count, kThreads * kPerThread);
    EXPECT_EQ(hist->histogram.min, 1u);
    EXPECT_EQ(hist->histogram.max, kPerThread * kThreads);
    // sum = (1+2+3+4) * (1 + 2 + ... + kPerThread)
    EXPECT_EQ(hist->histogram.sum,
              10 * kPerThread * (kPerThread + 1) / 2);

    // Writers are quiescent, so the merge is exact and two snapshots
    // agree bucket for bucket.
    obs::MetricsSnapshot again = obs::snapshotMetrics();
    const obs::MetricValue *hist2 = again.find("mtest/shard/hist");
    ASSERT_NE(hist2, nullptr);
    EXPECT_EQ(hist->histogram.buckets, hist2->histogram.buckets);

    // The merged distribution matches the same values recorded from a
    // single thread.
    obs::HistogramHandle ref = obs::metricHistogram("mtest/shard/ref");
    for (int t = 0; t < kThreads; ++t)
        for (std::uint64_t i = 1; i <= kPerThread; ++i)
            obs::metricRecord(ref, i * (t + 1));
    obs::MetricsSnapshot refSnap = obs::snapshotMetrics();
    const obs::MetricValue *refv = refSnap.find("mtest/shard/ref");
    ASSERT_NE(refv, nullptr);
    EXPECT_EQ(refv->histogram.buckets, hist->histogram.buckets);
    EXPECT_EQ(refv->histogram.quantile(0.5),
              hist->histogram.quantile(0.5));
}

TEST(MetricsShards, ExitedThreadsFoldIntoTheRegistry)
{
    // Each thread's shard is folded into the registry when the thread
    // exits (a daemon's per-connection threads come and go); the
    // totals must survive the fold exactly.
    constexpr std::uint64_t kThreads = 64;
    obs::CounterHandle c = obs::metricCounter("mtest/exit/count");
    obs::HistogramHandle h = obs::metricHistogram("mtest/exit/hist");
    for (std::uint64_t t = 1; t <= kThreads; ++t) {
        std::thread([&, t] {
            obs::metricAdd(c, t);
            obs::metricRecord(h, 1000 * t);
        }).join();
    }

    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    const obs::MetricValue *count = snap.find("mtest/exit/count");
    const obs::MetricValue *hist = snap.find("mtest/exit/hist");
    ASSERT_NE(count, nullptr);
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(count->counter, kThreads * (kThreads + 1) / 2);
    EXPECT_EQ(hist->histogram.count, kThreads);
    EXPECT_EQ(hist->histogram.sum, 1000 * kThreads * (kThreads + 1) / 2);
    EXPECT_EQ(hist->histogram.min, 1000u);
    EXPECT_EQ(hist->histogram.max, 1000 * kThreads);

    // A reset zeroes the folded totals too.
    obs::resetMetrics();
    obs::MetricsSnapshot cleared = obs::snapshotMetrics();
    EXPECT_EQ(cleared.find("mtest/exit/count")->counter, 0u);
    EXPECT_EQ(cleared.find("mtest/exit/hist")->histogram.count, 0u);
}

// ---------------------------------------------------------------------
// OpenMetrics export, checked by parsing.

struct OmSample
{
    std::string name;
    std::string le; // bucket label, "" for plain samples
    double value = 0;
};

/** Parses an OpenMetrics page into samples; fails the test on any
 *  malformed line. Returns false on parse failure. */
bool
parseOpenMetrics(const std::string &page, std::vector<OmSample> &out,
                 std::string &error)
{
    std::istringstream lines(page);
    std::string line;
    std::string last;
    while (std::getline(lines, line)) {
        if (line.empty()) {
            error = "blank line";
            return false;
        }
        last = line;
        if (line[0] == '#') {
            if (line.rfind("# TYPE ", 0) != 0 &&
                line.rfind("# UNIT ", 0) != 0 && line != "# EOF") {
                error = "unknown comment: " + line;
                return false;
            }
            continue;
        }
        OmSample sample;
        std::size_t space = line.rfind(' ');
        if (space == std::string::npos) {
            error = "no value: " + line;
            return false;
        }
        try {
            sample.value = std::stod(line.substr(space + 1));
        } catch (...) {
            error = "bad value: " + line;
            return false;
        }
        std::string name = line.substr(0, space);
        std::size_t brace = name.find('{');
        if (brace != std::string::npos) {
            std::string labels = name.substr(brace);
            name = name.substr(0, brace);
            if (labels.rfind("{le=\"", 0) != 0 ||
                labels.back() != '}') {
                error = "bad labels: " + line;
                return false;
            }
            sample.le = labels.substr(5, labels.size() - 7);
        }
        for (char ch : name) {
            bool ok = (ch >= 'a' && ch <= 'z') ||
                      (ch >= 'A' && ch <= 'Z') ||
                      (ch >= '0' && ch <= '9') || ch == '_' ||
                      ch == ':';
            if (!ok) {
                error = "bad name char: " + line;
                return false;
            }
        }
        sample.name = name;
        out.push_back(std::move(sample));
    }
    if (last != "# EOF") {
        error = "missing # EOF terminator";
        return false;
    }
    return true;
}

TEST(MetricsExport, OpenMetricsPageParses)
{
    obs::CounterHandle c = obs::metricCounter("mtest/om/adds");
    obs::GaugeHandle g = obs::metricGauge("mtest/om-gauge");
    obs::HistogramHandle h = obs::metricHistogram("mtest/om/lat_ns");
    obs::metricAdd(c, 7);
    obs::metricSet(g, -3);
    for (std::uint64_t v = 1; v <= 500; ++v)
        obs::metricRecord(h, v * v);

    std::ostringstream page;
    obs::exportOpenMetrics(obs::snapshotMetrics(), page);

    std::vector<OmSample> samples;
    std::string error;
    ASSERT_TRUE(parseOpenMetrics(page.str(), samples, error)) << error;

    // Slash and dash both sanitize to '_', under the isaria_ prefix.
    bool sawCounter = false, sawGauge = false;
    for (const OmSample &s : samples) {
        if (s.name == "isaria_mtest_om_adds_total") {
            sawCounter = true;
            EXPECT_EQ(s.value, 7);
        }
        if (s.name == "isaria_mtest_om_gauge") {
            sawGauge = true;
            EXPECT_EQ(s.value, -3);
        }
    }
    EXPECT_TRUE(sawCounter);
    EXPECT_TRUE(sawGauge);

    // Histogram series: cumulative, ordered le bounds, +Inf == count,
    // and _count consistent.
    std::vector<OmSample> buckets;
    double histCount = -1;
    for (const OmSample &s : samples) {
        if (s.name == "isaria_mtest_om_lat_ns_bucket")
            buckets.push_back(s);
        if (s.name == "isaria_mtest_om_lat_ns_count")
            histCount = s.value;
    }
    ASSERT_GE(buckets.size(), 2u);
    EXPECT_EQ(histCount, 500);
    double lastCumulative = 0;
    std::uint64_t lastLe = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        const OmSample &b = buckets[i];
        EXPECT_GE(b.value, lastCumulative) << "bucket " << i;
        lastCumulative = b.value;
        if (i + 1 == buckets.size()) {
            EXPECT_EQ(b.le, "+Inf");
            EXPECT_EQ(b.value, histCount);
        } else {
            std::uint64_t le = std::stoull(b.le);
            EXPECT_GT(le, lastLe) << "bucket " << i;
            lastLe = le;
        }
    }
}

// ---------------------------------------------------------------------
// Kill switch, reset, gauges, timer.

TEST(MetricsRegistry, KillSwitchStopsRecording)
{
    MetricsEnabledGuard guard;
    obs::CounterHandle c = obs::metricCounter("mtest/kill/count");
    obs::HistogramHandle h = obs::metricHistogram("mtest/kill/hist");
    obs::GaugeHandle g = obs::metricGauge("mtest/kill/gauge");

    obs::setMetricsEnabled(true);
    obs::metricAdd(c, 5);
    obs::setMetricsEnabled(false);
    EXPECT_FALSE(obs::metricsEnabled());
    obs::metricAdd(c, 100);
    obs::metricRecord(h, 42);
    obs::metricSet(g, 9);
    {
        obs::Span timed("mtest/kill/span", h);
    }
    obs::setMetricsEnabled(true);

    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    EXPECT_EQ(snap.find("mtest/kill/count")->counter, 5u);
    EXPECT_EQ(snap.find("mtest/kill/hist")->histogram.count, 0u);
    EXPECT_EQ(snap.find("mtest/kill/gauge")->gauge, 0);
}

TEST(MetricsRegistry, ResetZeroesButHandlesSurvive)
{
    obs::CounterHandle c = obs::metricCounter("mtest/reset/count");
    obs::HistogramHandle h = obs::metricHistogram("mtest/reset/hist");
    obs::metricAdd(c, 3);
    obs::metricRecord(h, 1000);

    obs::resetMetrics();
    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    EXPECT_EQ(snap.find("mtest/reset/count")->counter, 0u);
    EXPECT_EQ(snap.find("mtest/reset/hist")->histogram.count, 0u);

    // Handles from before the reset still record.
    obs::metricAdd(c, 2);
    obs::metricRecord(h, 64);
    snap = obs::snapshotMetrics();
    EXPECT_EQ(snap.find("mtest/reset/count")->counter, 2u);
    EXPECT_EQ(snap.find("mtest/reset/hist")->histogram.count, 1u);
    EXPECT_EQ(snap.find("mtest/reset/hist")->histogram.min, 64u);
}

/** One metric's current merged value, via a properly scoped
 *  snapshot. */
obs::MetricValue
lookupMetric(const char *name)
{
    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    const obs::MetricValue *m = snap.find(name);
    EXPECT_NE(m, nullptr) << name;
    return m ? *m : obs::MetricValue{};
}

TEST(MetricsRegistry, GaugeSetAndMaxSemantics)
{
    obs::GaugeHandle g = obs::metricGauge("mtest/gauge/hwm");
    obs::metricMax(g, -7); // first observation wins even if negative
    EXPECT_EQ(lookupMetric("mtest/gauge/hwm").gauge, -7);
    obs::metricMax(g, 12);
    obs::metricMax(g, 3); // lower: ignored
    EXPECT_EQ(lookupMetric("mtest/gauge/hwm").gauge, 12);
    obs::metricSet(g, 1); // set overrides unconditionally
    EXPECT_EQ(lookupMetric("mtest/gauge/hwm").gauge, 1);
}

TEST(MetricsRegistry, RegistrationIsIdempotent)
{
    obs::CounterHandle a = obs::metricCounter("mtest/idem/count");
    obs::CounterHandle b = obs::metricCounter("mtest/idem/count");
    EXPECT_EQ(a.slot, b.slot);
    obs::metricAdd(a, 1);
    obs::metricAdd(b, 1);
    EXPECT_EQ(lookupMetric("mtest/idem/count").counter, 2u);
}

TEST(MetricsRegistry, ScopedTimerRecordsOneSample)
{
    obs::HistogramHandle h = obs::metricHistogram("mtest/timer/ns");
    obs::HistogramSummary before = lookupMetric("mtest/timer/ns").histogram;
    obs::TraceSession session;
    session.activate();
    double seconds = 0;
    {
        obs::Span timed("mtest/timer", h);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        seconds = timed.close();
        // Closing is idempotent: scope exit records nothing more.
        EXPECT_EQ(timed.close(), seconds);
    }
    session.deactivate();
    obs::HistogramSummary after = lookupMetric("mtest/timer/ns").histogram;
    EXPECT_EQ(after.count, before.count + 1);
    // One clock: the histogram sample and the trace span are both the
    // duration the span returned.
    EXPECT_GE(seconds, 1e-3);
    auto ns = static_cast<std::uint64_t>(std::llround(seconds * 1e9));
    EXPECT_EQ(after.sum - before.sum, ns);
    std::vector<obs::TaggedEvent> events = session.drain();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(obs::nameOf(events[0].event.name), "mtest/timer");
    EXPECT_EQ(events[0].event.durNs, ns);
}

TEST(MetricsExport, JsonBlockIsWellFormed)
{
    obs::CounterHandle c = obs::metricCounter("mtest/json/c");
    obs::HistogramHandle h = obs::metricHistogram("mtest/json/h");
    obs::metricAdd(c);
    obs::metricRecord(h, 100);

    std::string json = obs::metricsJson(obs::snapshotMetrics());
    // Structural spot checks; the full parse runs in obs_test's JSON
    // validator over StatsReport::toJson, which embeds this block.
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
    EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
    EXPECT_NE(json.find("\"mtest/json/c\":"), std::string::npos);
    EXPECT_NE(json.find("\"mtest/json/h\":{\"count\":"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Metrics must not perturb results.

std::string
saturateAndExtract(const RecExpr &program,
                   const std::vector<CompiledRule> &rules, int threads)
{
    EqSatLimits limits;
    limits.maxIters = 3;
    limits.maxNodes = 40'000;
    limits.numThreads = threads;
    EGraph eg;
    EClassId root = eg.addExpr(program);
    runEqSat(eg, rules, limits);
    DspCostModel cost;
    auto best = extractBest(eg, root, cost);
    EXPECT_TRUE(best.has_value());
    return best ? printSexpr(best->expr) : std::string();
}

TEST(MetricsDeterminism, MetricsOnAndOffAreByteIdentical)
{
    MetricsEnabledGuard guard;
    auto rules = compileRules(diospyrosHandRules().rules());
    RecExpr program = liftKernel(make2DConv(3, 3, 2, 2), 4);

    for (int threads : {1, 4}) {
        obs::setMetricsEnabled(false);
        std::string off = saturateAndExtract(program, rules, threads);

        obs::setMetricsEnabled(true);
        std::uint64_t itersBefore = 0;
        {
            obs::MetricsSnapshot snap = obs::snapshotMetrics();
            if (const obs::MetricValue *m = snap.find("eqsat/iters"))
                itersBefore = m->counter;
        }
        std::string on = saturateAndExtract(program, rules, threads);

        EXPECT_EQ(on, off) << "threads=" << threads;
        // The metrics-on run actually recorded the saturation.
        obs::MetricsSnapshot snap = obs::snapshotMetrics();
        const obs::MetricValue *m = snap.find("eqsat/iters");
        ASSERT_NE(m, nullptr);
        EXPECT_GT(m->counter, itersBefore);
    }
}

} // namespace
} // namespace isaria
