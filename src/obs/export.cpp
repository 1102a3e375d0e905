#include "obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "obs/metrics.h"

namespace isaria::obs
{

namespace
{

const char *
kindName(EventKind kind)
{
    switch (kind) {
      case EventKind::Span: return "span";
      case EventKind::Counter: return "counter";
    }
    return "?";
}

/** Formats @p ns as fractional microseconds (chrome's unit). */
std::string
microseconds(std::uint64_t ns)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", ns / 1000,
                  static_cast<unsigned>(ns % 1000));
    return buf;
}

} // namespace

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
exportJsonl(const TraceSession &session, std::ostream &out)
{
    std::vector<TaggedEvent> events = session.drain();
    // The always-on registry's populated histograms ride along as
    // schema-v2 "hist" summary records, so one trace file carries
    // both the event stream and the latency distributions.
    MetricsSnapshot metrics = snapshotMetrics();
    std::size_t hists = 0;
    for (const MetricValue &m : metrics.metrics)
        if (m.kind == MetricKind::Histogram && m.histogram.count > 0)
            ++hists;
    out << "{\"type\":\"meta\",\"schema\":" << kTraceSchemaVersion
        << ",\"tool\":\"isaria-obs\",\"threads\":"
        << session.threadCount()
        << ",\"dropped\":" << session.droppedEvents()
        << ",\"events\":" << events.size() << ",\"hists\":" << hists
        << "}\n";
    for (const TaggedEvent &tagged : events) {
        const Event &e = tagged.event;
        out << "{\"type\":\"" << kindName(e.kind) << "\",\"name\":\""
            << jsonEscape(nameOf(e.name)) << "\",\"tid\":" << tagged.tid
            << ",\"ts_ns\":" << e.startNs;
        if (e.kind == EventKind::Span)
            out << ",\"dur_ns\":" << e.durNs;
        out << ",\"value\":" << e.value << "}\n";
    }
    for (const MetricValue &m : metrics.metrics) {
        if (m.kind != MetricKind::Histogram || m.histogram.count == 0)
            continue;
        const HistogramSummary &h = m.histogram;
        out << "{\"type\":\"hist\",\"name\":\"" << jsonEscape(m.name)
            << "\",\"unit\":\"" << jsonEscape(m.unit)
            << "\",\"count\":" << h.count << ",\"sum\":" << h.sum
            << ",\"min\":" << h.min << ",\"max\":" << h.max
            << ",\"p50\":" << h.quantile(0.50)
            << ",\"p90\":" << h.quantile(0.90)
            << ",\"p95\":" << h.quantile(0.95)
            << ",\"p99\":" << h.quantile(0.99) << "}\n";
    }
}

void
exportChromeTrace(const TraceSession &session, std::ostream &out)
{
    std::vector<TaggedEvent> events = session.drain();
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":"
           "\"isaria-obs\",\"schema\":"
        << kTraceSchemaVersion
        << ",\"dropped\":" << session.droppedEvents()
        << "},\"traceEvents\":[\n";
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"args\":{\"name\":\"isaria\"}}";
    for (const TaggedEvent &tagged : events) {
        const Event &e = tagged.event;
        out << ",\n";
        std::string name = jsonEscape(nameOf(e.name));
        switch (e.kind) {
          case EventKind::Span:
            out << "{\"name\":\"" << name
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tagged.tid
                << ",\"ts\":" << microseconds(e.startNs)
                << ",\"dur\":" << microseconds(e.durNs)
                << ",\"args\":{\"value\":" << e.value << "}}";
            break;
          case EventKind::Counter:
            // Counters are per-process series; pinning tid keeps one
            // row per counter name.
            out << "{\"name\":\"" << name
                << "\",\"ph\":\"C\",\"pid\":1,\"ts\":"
                << microseconds(e.startNs) << ",\"args\":{\"value\":"
                << e.value << "}}";
            break;
        }
    }
    out << "\n]}\n";
}

StatsReport
aggregateStats(const TraceSession &session)
{
    StatsReport report;
    report.droppedEvents = session.droppedEvents();
    report.threads = session.threadCount();

    // Aggregate by (kind, name); std::map keeps the output ordering
    // deterministic and readable.
    std::map<std::string, StatsEntry> spans;
    std::map<std::string, StatsEntry> counters;
    for (const TaggedEvent &tagged : session.drain()) {
        const Event &e = tagged.event;
        auto &bucket =
            e.kind == EventKind::Span ? spans : counters;
        const std::string &name = nameOf(e.name);
        auto [it, fresh] = bucket.try_emplace(name);
        StatsEntry &entry = it->second;
        if (fresh) {
            entry.name = name;
            entry.min = e.value;
            entry.max = e.value;
        }
        ++entry.count;
        entry.totalNs += e.durNs;
        entry.last = e.value;
        entry.min = std::min(entry.min, e.value);
        entry.max = std::max(entry.max, e.value);
        entry.sum += e.value;
    }
    for (auto &[name, entry] : spans)
        report.spans.push_back(std::move(entry));
    std::stable_sort(report.spans.begin(), report.spans.end(),
                     [](const StatsEntry &a, const StatsEntry &b) {
                         return a.totalNs > b.totalNs;
                     });
    for (auto &[name, entry] : counters)
        report.counters.push_back(std::move(entry));
    return report;
}

std::string
StatsReport::toString() const
{
    std::string out = "== obs stats ==\n";
    char line[256];
    std::snprintf(line, sizeof line,
                  "threads: %zu   dropped events: %" PRIu64 "\n",
                  threads, droppedEvents);
    out += line;
    if (!spans.empty()) {
        out += "-- spans (total wall time) --\n";
        for (const StatsEntry &s : spans) {
            std::snprintf(line, sizeof line,
                          "  %-28s %10.3f ms  x%" PRIu64 "\n",
                          s.name.c_str(),
                          static_cast<double>(s.totalNs) / 1e6, s.count);
            out += line;
        }
    }
    if (!counters.empty()) {
        out += "-- counters (last / min / max / samples) --\n";
        for (const StatsEntry &c : counters) {
            std::snprintf(line, sizeof line,
                          "  %-28s %12" PRId64 " %12" PRId64
                          " %12" PRId64 "  x%" PRIu64 "\n",
                          c.name.c_str(), c.last, c.min, c.max,
                          c.count);
            out += line;
        }
    }
    return out;
}

std::string
StatsReport::toJson() const
{
    std::string out = "{\"schema\":";
    out += std::to_string(kTraceSchemaVersion);
    out += ",\"threads\":" + std::to_string(threads);
    out += ",\"dropped\":" + std::to_string(droppedEvents);
    out += ",\"spans\":{";
    bool first = true;
    for (const StatsEntry &s : spans) {
        if (!first)
            out += ',';
        first = false;
        out += "\"" + jsonEscape(s.name) + "\":{\"total_ns\":" +
               std::to_string(s.totalNs) +
               ",\"count\":" + std::to_string(s.count) + "}";
    }
    out += "},\"counters\":{";
    first = true;
    for (const StatsEntry &c : counters) {
        if (!first)
            out += ',';
        first = false;
        out += "\"" + jsonEscape(c.name) + "\":{\"last\":" +
               std::to_string(c.last) + ",\"min\":" +
               std::to_string(c.min) + ",\"max\":" +
               std::to_string(c.max) + ",\"count\":" +
               std::to_string(c.count) + "}";
    }
    // The always-on registry rides along in every obs block, so bench
    // sidecars carry the latency quantiles even for untraced runs.
    out += "},\"metrics\":" + metricsJson(snapshotMetrics());
    out += "}";
    return out;
}

} // namespace isaria::obs
