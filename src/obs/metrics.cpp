#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/export.h"

namespace isaria::obs
{

namespace
{

// ---------------------------------------------------------------------
// The registry.
//
// Shape: a global definition table (name → kind + dense per-kind slot)
// plus one Shard per recording thread. Counter and histogram slots
// live in the shards (single-writer, merged on read); gauges are
// registry-global (a "set" is last-writer-wins — per-thread copies
// would have no meaningful merge).
//
// Single-writer slots let the hot path use relaxed load+store instead
// of RMW atomics; the only cross-thread traffic is the snapshot
// reader's relaxed loads, which tolerate torn *ordering* (never torn
// values — every slot is a naturally aligned 64-bit atomic).

struct HistogramShard
{
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
};

struct Shard
{
    /** Slots must not move when another metric registers (atomics
     *  are neither movable nor copyable): counters live in a deque,
     *  histograms in cells of their own, so that the record path
     *  finds a histogram with one size check and one load. */
    std::deque<std::atomic<std::uint64_t>> counters;
    std::vector<std::unique_ptr<HistogramShard>> histograms;
};

thread_local Shard *tlShard = nullptr;

struct MetricDef
{
    std::string name;
    std::string unit;
    MetricKind kind = MetricKind::Counter;
    /** Dense index within the metric's kind. */
    std::uint32_t slot = 0;
};

class Registry
{
  public:
    Registry()
    {
        if (const char *env = std::getenv("ISARIA_METRICS");
            env && std::strcmp(env, "0") == 0) {
            enabled_.store(false, std::memory_order_relaxed);
        }
    }

    std::uint32_t
    define(const char *name, MetricKind kind, const char *unit)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = ids_.find(name);
        if (it != ids_.end()) {
            const MetricDef &def = defs_[it->second];
            // A name reused with a different kind would corrupt the
            // slot spaces; fall back to the first registration.
            return def.kind == kind ? def.slot : 0;
        }
        MetricDef def;
        def.name = name;
        def.unit = unit ? unit : "";
        def.kind = kind;
        switch (kind) {
          case MetricKind::Counter: def.slot = numCounters_++; break;
          case MetricKind::Gauge:
            def.slot = static_cast<std::uint32_t>(gauges_.size());
            gauges_.emplace_back(0);
            gaugeSet_.emplace_back(false);
            break;
          case MetricKind::Histogram: def.slot = numHistograms_++; break;
        }
        ids_.emplace(def.name, defs_.size());
        defs_.push_back(std::move(def));
        return defs_.back().slot;
    }

    bool
    enabledFast() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void
    setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    /** This thread's shard (registers it on first use). */
    Shard &shard();

    void
    counterAdd(std::uint32_t slot, std::uint64_t delta)
    {
        std::atomic<std::uint64_t> &cell = counterCell(shard(), slot);
        cell.store(cell.load(std::memory_order_relaxed) + delta,
                   std::memory_order_relaxed);
    }

    void
    histogramRecord(std::uint32_t slot, std::uint64_t value)
    {
        // The always-on path makes no call: a thread's first record
        // and a slot its shard has not grown to yet take the slow path.
        Shard *s = tlShard;
        if (!s || slot >= s->histograms.size()) [[unlikely]] {
            histogramRecordSlow(slot, value);
            return;
        }
        record(*s->histograms[slot], value);
    }

    [[gnu::noinline]] void
    histogramRecordSlow(std::uint32_t slot, std::uint64_t value)
    {
        record(histogramCell(shard(), slot), value);
    }

    static void
    record(HistogramShard &h, std::uint64_t value)
    {
        std::uint32_t bucket = histogramBucket(value);
        std::atomic<std::uint64_t> &cell = h.buckets[bucket];
        cell.store(cell.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
        h.count.store(h.count.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
        h.sum.store(h.sum.load(std::memory_order_relaxed) + value,
                    std::memory_order_relaxed);
        if (value < h.min.load(std::memory_order_relaxed))
            h.min.store(value, std::memory_order_relaxed);
        if (value > h.max.load(std::memory_order_relaxed))
            h.max.store(value, std::memory_order_relaxed);
    }

    void
    gaugeSet(std::uint32_t slot, std::int64_t value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (slot < gauges_.size()) {
            gauges_[slot] = value;
            gaugeSet_[slot] = true;
        }
    }

    void
    gaugeMax(std::uint32_t slot, std::int64_t value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (slot < gauges_.size() &&
            (!gaugeSet_[slot] || value > gauges_[slot])) {
            gauges_[slot] = value;
            gaugeSet_[slot] = true;
        }
    }

    void
    reset()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &shard : shards_) {
            for (auto &cell : shard->counters)
                cell.store(0, std::memory_order_relaxed);
            for (auto &cell : shard->histograms) {
                HistogramShard &h = *cell;
                for (auto &bucket : h.buckets)
                    bucket.store(0, std::memory_order_relaxed);
                h.count.store(0, std::memory_order_relaxed);
                h.sum.store(0, std::memory_order_relaxed);
                h.min.store(~std::uint64_t{0},
                            std::memory_order_relaxed);
                h.max.store(0, std::memory_order_relaxed);
            }
        }
        std::fill(gauges_.begin(), gauges_.end(), 0);
        std::fill(gaugeSet_.begin(), gaugeSet_.end(), false);
    }

    MetricsSnapshot snapshot() const;

  private:
    static std::atomic<std::uint64_t> &
    counterCell(Shard &shard, std::uint32_t slot)
    {
        // Lazy per-shard growth: a slot registered after this shard
        // was created appends under the registry mutex. Deque slots
        // never move, so readers holding the mutex stay valid and the
        // owning thread's cached references stay valid too.
        if (slot >= shard.counters.size())
            return growCounterCells(shard, slot);
        return shard.counters[slot];
    }

    static HistogramShard &
    histogramCell(Shard &shard, std::uint32_t slot)
    {
        if (slot >= shard.histograms.size())
            return growHistogramCells(shard, slot);
        return *shard.histograms[slot];
    }

    static std::atomic<std::uint64_t> &growCounterCells(Shard &shard,
                                                        std::uint32_t slot);
    static HistogramShard &growHistogramCells(Shard &shard,
                                              std::uint32_t slot);

    std::atomic<bool> enabled_{true};

    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::size_t> ids_;
    std::deque<MetricDef> defs_;
    std::uint32_t numCounters_ = 0;
    std::uint32_t numHistograms_ = 0;
    std::vector<std::int64_t> gauges_;
    /** Distinguishes "never set" from "set to 0" for gaugeMax. */
    std::deque<bool> gaugeSet_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

/** Out of line, so that registry() stays small enough to inline into
 *  the record path. */
[[gnu::noinline]] Registry *
newRegistry()
{
    return new Registry;
}

Registry &
registry()
{
    static Registry *instance = newRegistry(); // never destroyed:
    // instrumentation sites may record during static teardown.
    return *instance;
}

Shard &
Registry::shard()
{
    if (tlShard)
        return *tlShard;
    std::lock_guard<std::mutex> lock(mutex_);
    shards_.push_back(std::make_unique<Shard>());
    tlShard = shards_.back().get();
    return *tlShard;
}

std::atomic<std::uint64_t> &
Registry::growCounterCells(Shard &shard, std::uint32_t slot)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex_);
    while (shard.counters.size() <= slot)
        shard.counters.emplace_back(0);
    return shard.counters[slot];
}

HistogramShard &
Registry::growHistogramCells(Shard &shard, std::uint32_t slot)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex_);
    while (shard.histograms.size() <= slot)
        shard.histograms.push_back(std::make_unique<HistogramShard>());
    return *shard.histograms[slot];
}

MetricsSnapshot
Registry::snapshot() const
{
    MetricsSnapshot out;
    std::lock_guard<std::mutex> lock(mutex_);
    out.metrics.reserve(defs_.size());
    for (const MetricDef &def : defs_) {
        MetricValue value;
        value.name = def.name;
        value.unit = def.unit;
        value.kind = def.kind;
        switch (def.kind) {
          case MetricKind::Counter: {
            std::uint64_t total = 0;
            for (const auto &shard : shards_)
                if (def.slot < shard->counters.size())
                    total += shard->counters[def.slot].load(
                        std::memory_order_relaxed);
            value.counter = total;
            break;
          }
          case MetricKind::Gauge:
            value.gauge = def.slot < gauges_.size() ? gauges_[def.slot]
                                                    : 0;
            break;
          case MetricKind::Histogram: {
            HistogramSummary &sum = value.histogram;
            std::vector<std::uint64_t> merged(kHistogramBuckets, 0);
            for (const auto &shard : shards_) {
                if (def.slot >= shard->histograms.size())
                    continue;
                const HistogramShard &h = *shard->histograms[def.slot];
                std::uint64_t count =
                    h.count.load(std::memory_order_relaxed);
                if (count == 0)
                    continue;
                sum.count += count;
                sum.sum += h.sum.load(std::memory_order_relaxed);
                std::uint64_t lo =
                    h.min.load(std::memory_order_relaxed);
                std::uint64_t hi =
                    h.max.load(std::memory_order_relaxed);
                if (sum.count == count || lo < sum.min)
                    sum.min = lo;
                if (hi > sum.max)
                    sum.max = hi;
                for (std::uint32_t b = 0; b < kHistogramBuckets; ++b)
                    merged[b] += h.buckets[b].load(
                        std::memory_order_relaxed);
            }
            for (std::uint32_t b = 0; b < kHistogramBuckets; ++b)
                if (merged[b])
                    sum.buckets.emplace_back(b, merged[b]);
            break;
          }
        }
        out.metrics.push_back(std::move(value));
    }
    std::sort(out.metrics.begin(), out.metrics.end(),
              [](const MetricValue &a, const MetricValue &b) {
                  return a.name < b.name;
              });
    return out;
}

/** isaria_<name> with '/', '-', and anything non-alphanumeric → '_'
 *  (the OpenMetrics name charset). */
std::string
openMetricsName(const std::string &name)
{
    std::string out = "isaria_";
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

} // namespace

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "?";
}

CounterHandle
metricCounter(const char *name)
{
    return {registry().define(name, MetricKind::Counter, "")};
}

GaugeHandle
metricGauge(const char *name)
{
    return {registry().define(name, MetricKind::Gauge, "")};
}

HistogramHandle
metricHistogram(const char *name, const char *unit)
{
    return {registry().define(name, MetricKind::Histogram, unit)};
}

void
metricAdd(CounterHandle handle, std::uint64_t delta)
{
    Registry &reg = registry();
    if (!reg.enabledFast())
        return;
    reg.counterAdd(handle.slot, delta);
}

void
metricSet(GaugeHandle handle, std::int64_t value)
{
    Registry &reg = registry();
    if (!reg.enabledFast())
        return;
    reg.gaugeSet(handle.slot, value);
}

void
metricMax(GaugeHandle handle, std::int64_t value)
{
    Registry &reg = registry();
    if (!reg.enabledFast())
        return;
    reg.gaugeMax(handle.slot, value);
}

void
metricRecord(HistogramHandle handle, std::uint64_t value)
{
    Registry &reg = registry();
    if (!reg.enabledFast())
        return;
    reg.histogramRecord(handle.slot, value);
}

ScopedHistogramTimer::ScopedHistogramTimer(HistogramHandle handle)
    : handle_(handle)
{
    if (!registry().enabledFast())
        return;
    armed_ = true;
    start_ = std::chrono::steady_clock::now();
}

ScopedHistogramTimer::~ScopedHistogramTimer()
{
    if (!armed_)
        return;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    metricRecord(handle_, static_cast<std::uint64_t>(ns));
}

void
setMetricsEnabled(bool enabled)
{
    registry().setEnabled(enabled);
}

bool
metricsEnabled()
{
    return registry().enabledFast();
}

void
resetMetrics()
{
    registry().reset();
}

// ---------------------------------------------------------------------
// Snapshots.

std::uint64_t
HistogramSummary::quantile(double q) const
{
    if (count == 0)
        return 0;
    if (q < 0)
        q = 0;
    if (q > 1)
        q = 1;
    // Rank of the q-th observation (1-based, nearest-rank).
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
    if (rank < 1)
        rank = 1;
    if (rank > count)
        rank = count;
    std::uint64_t seen = 0;
    for (const auto &[bucket, n] : buckets) {
        seen += n;
        if (seen >= rank) {
            std::uint64_t lo = histogramBucketLow(bucket);
            std::uint64_t hi = histogramBucketHigh(bucket);
            std::uint64_t mid = lo + (hi - lo) / 2;
            // The true order statistic is inside [min, max] even when
            // its bucket straddles them.
            return std::clamp(mid, min, max);
        }
    }
    return max;
}

const MetricValue *
MetricsSnapshot::find(std::string_view name) const &
{
    for (const MetricValue &value : metrics)
        if (value.name == name)
            return &value;
    return nullptr;
}

MetricsSnapshot
snapshotMetrics()
{
    return registry().snapshot();
}

void
exportOpenMetrics(const MetricsSnapshot &snapshot, std::ostream &out)
{
    for (const MetricValue &m : snapshot.metrics) {
        std::string name = openMetricsName(m.name);
        switch (m.kind) {
          case MetricKind::Counter:
            out << "# TYPE " << name << " counter\n";
            out << name << "_total " << m.counter << "\n";
            break;
          case MetricKind::Gauge:
            out << "# TYPE " << name << " gauge\n";
            out << name << " " << m.gauge << "\n";
            break;
          case MetricKind::Histogram: {
            out << "# TYPE " << name << " histogram\n";
            if (!m.unit.empty())
                out << "# UNIT " << name << " " << m.unit << "\n";
            std::uint64_t cumulative = 0;
            for (const auto &[bucket, n] : m.histogram.buckets) {
                cumulative += n;
                out << name << "_bucket{le=\""
                    << histogramBucketHigh(bucket) << "\"} "
                    << cumulative << "\n";
            }
            out << name << "_bucket{le=\"+Inf\"} " << m.histogram.count
                << "\n";
            out << name << "_sum " << m.histogram.sum << "\n";
            out << name << "_count " << m.histogram.count << "\n";
            break;
          }
        }
    }
    out << "# EOF\n";
}

std::string
metricsJson(const MetricsSnapshot &snapshot)
{
    std::string counters = "{";
    std::string gauges = "{";
    std::string histograms = "{";
    bool firstC = true, firstG = true, firstH = true;
    for (const MetricValue &m : snapshot.metrics) {
        switch (m.kind) {
          case MetricKind::Counter:
            if (!firstC)
                counters += ',';
            firstC = false;
            counters += "\"" + jsonEscape(m.name) +
                        "\":" + std::to_string(m.counter);
            break;
          case MetricKind::Gauge:
            if (!firstG)
                gauges += ',';
            firstG = false;
            gauges += "\"" + jsonEscape(m.name) +
                      "\":" + std::to_string(m.gauge);
            break;
          case MetricKind::Histogram: {
            if (m.histogram.count == 0)
                break;
            if (!firstH)
                histograms += ',';
            firstH = false;
            const HistogramSummary &h = m.histogram;
            histograms += "\"" + jsonEscape(m.name) + "\":{";
            histograms += "\"count\":" + std::to_string(h.count);
            histograms += ",\"sum\":" + std::to_string(h.sum);
            histograms += ",\"min\":" + std::to_string(h.min);
            histograms += ",\"max\":" + std::to_string(h.max);
            histograms += ",\"p50\":" + std::to_string(h.quantile(0.50));
            histograms += ",\"p90\":" + std::to_string(h.quantile(0.90));
            histograms += ",\"p95\":" + std::to_string(h.quantile(0.95));
            histograms += ",\"p99\":" + std::to_string(h.quantile(0.99));
            histograms += "}";
            break;
          }
        }
    }
    return "{\"counters\":" + counters + "},\"gauges\":" + gauges +
           "},\"histograms\":" + histograms + "}}";
}

std::string
metricsToString(const MetricsSnapshot &snapshot)
{
    std::string out = "== metrics ==\n";
    char line[256];
    bool headerC = false, headerG = false, headerH = false;
    for (const MetricValue &m : snapshot.metrics) {
        switch (m.kind) {
          case MetricKind::Counter:
            if (m.counter == 0)
                break;
            if (!headerC) {
                out += "-- counters --\n";
                headerC = true;
            }
            std::snprintf(line, sizeof line, "  %-32s %14" PRIu64 "\n",
                          m.name.c_str(), m.counter);
            out += line;
            break;
          case MetricKind::Gauge:
            if (!headerG) {
                out += "-- gauges --\n";
                headerG = true;
            }
            std::snprintf(line, sizeof line, "  %-32s %14" PRId64 "\n",
                          m.name.c_str(), m.gauge);
            out += line;
            break;
          case MetricKind::Histogram: {
            if (m.histogram.count == 0)
                break;
            if (!headerH) {
                out += "-- histograms (count / p50 / p95 / p99 / "
                       "max) --\n";
                headerH = true;
            }
            const HistogramSummary &h = m.histogram;
            std::snprintf(line, sizeof line,
                          "  %-32s x%-8" PRIu64 " %12" PRIu64
                          " %12" PRIu64 " %12" PRIu64 " %12" PRIu64
                          "\n",
                          m.name.c_str(), h.count, h.quantile(0.50),
                          h.quantile(0.95), h.quantile(0.99), h.max);
            out += line;
            break;
          }
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Periodic snapshot writer.

struct MetricsSnapshotWriter::Impl
{
    std::mutex mutex;
    std::condition_variable cv;
    bool stopping = false;
    std::thread worker;
};

MetricsSnapshotWriter::MetricsSnapshotWriter(std::string path,
                                             double intervalSeconds)
    : path_(std::move(path)),
      intervalSeconds_(intervalSeconds),
      impl_(new Impl)
{
    if (intervalSeconds_ > 0)
        impl_->worker = std::thread([this] { run(); });
}

MetricsSnapshotWriter::~MetricsSnapshotWriter()
{
    stop();
    delete impl_;
}

void
MetricsSnapshotWriter::run()
{
    auto interval = std::chrono::duration<double>(intervalSeconds_);
    std::unique_lock<std::mutex> lock(impl_->mutex);
    while (!impl_->stopping) {
        if (impl_->cv.wait_for(lock, interval,
                               [&] { return impl_->stopping; }))
            break;
        lock.unlock();
        writeNow();
        lock.lock();
    }
}

bool
MetricsSnapshotWriter::writeNow()
{
    // Tempfile + rename: scrapers reading `path_` never see a torn
    // page. The tempname is pid-free — only this writer owns it.
    std::string temp = path_ + ".tmp";
    {
        std::ofstream out(temp);
        if (!out) {
            std::fprintf(stderr,
                         "[obs] cannot open metrics file: %s\n",
                         temp.c_str());
            return false;
        }
        exportOpenMetrics(snapshotMetrics(), out);
        if (!out.good())
            return false;
    }
    if (std::rename(temp.c_str(), path_.c_str()) != 0) {
        std::fprintf(stderr, "[obs] cannot publish metrics file: %s\n",
                     path_.c_str());
        return false;
    }
    return true;
}

void
MetricsSnapshotWriter::stop()
{
    if (stopped_)
        return;
    stopped_ = true;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->stopping = true;
    }
    impl_->cv.notify_all();
    if (impl_->worker.joinable())
        impl_->worker.join();
    writeNow();
}

} // namespace isaria::obs
