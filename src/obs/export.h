#ifndef ISARIA_OBS_EXPORT_H
#define ISARIA_OBS_EXPORT_H

/**
 * @file
 * Trace exporters and the end-of-run aggregated stats report.
 *
 * Two on-disk formats:
 *
 * - **JSONL** — one self-describing JSON object per line, led by a
 *   `meta` line carrying the schema version. Greppable, streamable,
 *   and validated in CI against tools/trace_schema.json.
 * - **Chrome trace_event** — a JSON object that loads directly in
 *   chrome://tracing or https://ui.perfetto.dev: spans are complete
 *   ("ph":"X") events with microsecond timestamps, counters are
 *   "ph":"C" series, threads map to trace rows.
 *
 * The aggregated StatsReport is what `--stats` prints: per-span-name
 * wall time and call counts plus per-counter summaries (a registry
 * counter's events carry deltas, so their sum is its total; a gauge's
 * carry the values written) — the same numbers every perf PR should
 * quote instead of bespoke printfs.
 */

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"

namespace isaria::obs
{

/** Version stamped into every exported artifact's meta record.
 *  v2: the JSONL export appends one "hist" histogram-summary record
 *  per populated registry histogram (and the meta line counts them
 *  in "hists"), and the stats JSON block carries a "metrics"
 *  sub-object — see obs/metrics.h and tools/trace_schema.json. */
inline constexpr int kTraceSchemaVersion = 2;

/** Escapes @p text for embedding inside a JSON string literal (the
 *  one escaper of every JSON artifact, daemon responses included). */
std::string jsonEscape(std::string_view text);

/** Writes the session's events as JSON-lines to @p out. */
void exportJsonl(const TraceSession &session, std::ostream &out);

/** Writes the session's events in Chrome trace_event format. */
void exportChromeTrace(const TraceSession &session, std::ostream &out);

/** Aggregate of all events sharing one name. */
struct StatsEntry
{
    std::string name;
    std::uint64_t count = 0;
    /** Spans: total wall time inside the span. */
    std::uint64_t totalNs = 0;
    /** Counters: last observed / min / max / sum of samples. */
    std::int64_t last = 0;
    std::int64_t min = 0;
    std::int64_t max = 0;
    std::int64_t sum = 0;
};

/** The end-of-run report behind `--stats`. */
struct StatsReport
{
    /** Span aggregates, widest total time first. */
    std::vector<StatsEntry> spans;
    /** Counter aggregates, by name. */
    std::vector<StatsEntry> counters;
    std::uint64_t droppedEvents = 0;
    std::size_t threads = 0;

    /** Human-readable table. */
    std::string toString() const;
    /** The shared `obs` JSON block embedded in BENCH_*.json files. */
    std::string toJson() const;
};

/** Aggregates the session's retained events. */
StatsReport aggregateStats(const TraceSession &session);

} // namespace isaria::obs

#endif // ISARIA_OBS_EXPORT_H
