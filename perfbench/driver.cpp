// The benchmark driver: runs one workload in the current directory and
// prints one JSON result line (see README.md). run.py builds it and
// gives it a fresh directory per run.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//
// Untraced runs report the end-to-end metrics, traced runs every
// per-layer metric and write their spans to trace.json.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

using namespace perfbench;

namespace
{

struct MetricSpec
{
    const char *name;
    const char *unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"setup_peak_rss_mb", "MiB"},
    {"peak_rss_mb", "MiB"},
    {"latency_p50_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"speedup_geomean", "x"},
};

constexpr MetricSpec kPerLayer[] = {
    {"synth.total_s", "s"},
    {"synth.enumerate_s", "s"},
    {"synth.shrink_s", "s"},
    {"synth.generalize_s", "s"},
    {"synth.terms", "count"},
    {"synth.candidates", "count"},
    {"synth.rejected_unsound", "count"},
    {"synth.pruned_derivable", "count"},
    {"synth.one_wide_rules", "count"},
    {"synth.rules", "count"},
    {"cache.store_ms", "ms"},
    {"cache.load_ms", "ms"},
    {"cache.entry_kb", "KiB"},
    {"phase.assign_ms", "ms"},
    {"phase.expansion_rules", "count"},
    {"phase.compilation_rules", "count"},
    {"phase.optimization_rules", "count"},
    {"frontend.lift_ms", "ms"},
    {"frontend.program_nodes", "count"},
    {"compiler.build_ms", "ms"},
    {"compiler.compile_s", "s"},
    {"compiler.rounds", "count"},
    {"compiler.eqsat_calls", "count"},
    {"compiler.extract_s", "s"},
    {"compiler.cost_ratio_geomean", "x"},
    {"compiler.memo_hits", "count"},
    {"compiler.memo_misses", "count"},
    {"egraph.search_s", "s"},
    {"egraph.apply_s", "s"},
    {"egraph.iterations", "count"},
    {"egraph.peak_nodes", "count"},
    {"egraph.node_limit_stops", "count"},
    {"egraph.iter_limit_stops", "count"},
    {"egraph.saturated_stops", "count"},
    {"egraph.step_budget_stops", "count"},
    {"egraph.time_limit_stops", "count"},
    {"egraph.peak_mb", "MiB"},
    {"lower.lower_ms", "ms"},
    {"lower.instructions", "count"},
    {"vm.cycles", "count"},
    {"vm.scalar_cycles", "count"},
    {"vm.simulate_ms", "ms"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.response_kb", "KiB"},
    {"serve.transport_p50_ms", "ms"},
    {"serve.miss_p50_ms", "ms"},
    {"serve.queue_p50_ms", "ms"},
    {"serve.compile_s", "s"},
    {"serve.latency_p98_ms", "ms"},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "{compile-fusion,compile-rvv8,serve-mix} --seed N "
                 "--seconds S --trace {0,1}\n",
                 why);
    return 2;
}

/**
 * Renders the metrics of @p table from @p values as a JSON object.
 * Every value named in @p values must be in the table and finite;
 * @p required demands that every table entry be present.
 */
bool
renderMetrics(const MetricSpec *table, std::size_t count,
              const std::map<std::string, double> &values, bool required,
              std::string &out)
{
    for (const auto &[name, value] : values) {
        bool known = false;
        for (std::size_t i = 0; i < count; ++i)
            known |= name == table[i].name;
        if (!known || !std::isfinite(value)) {
            std::fprintf(stderr, "perfbench_driver: bad metric %s = %g\n",
                         name.c_str(), value);
            return false;
        }
    }
    out.clear();
    out.push_back('{');
    for (std::size_t i = 0; i < count; ++i) {
        auto it = values.find(table[i].name);
        if (it == values.end() && required) {
            std::fprintf(stderr, "perfbench_driver: metric %s missing\n",
                         table[i].name);
            return false;
        }
        char item[160];
        std::snprintf(item, sizeof item,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", table[i].name,
                      it == values.end() ? 0.0 : it->second, table[i].unit);
        out += item;
    }
    out.push_back('}');
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool haveWorkload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload") {
            options.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::atof(value);
        } else if (flag == "--trace") {
            options.trace = std::strcmp(value, "0") != 0;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (argc % 2 == 0)
        return usage("flags come in pairs");
    if (!haveWorkload)
        return usage("--workload is required");
    if (!(options.seconds > 0))
        return usage("--seconds must be positive");

    Tracer tracer(options.trace);
    RunResult result;
    try {
        if (options.workload == "compile-fusion" ||
            options.workload == "compile-rvv8")
            result = runCompileWorkload(options, tracer);
        else if (options.workload == "serve-mix")
            result = runServeWorkload(options, tracer);
        else
            return usage(("unknown workload " + options.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s failed: %s\n",
                     options.workload.c_str(), e.what());
        return 1;
    }

    std::string metrics;
    bool ok = options.trace
                  ? renderMetrics(kPerLayer, std::size(kPerLayer),
                                  result.perLayer, false, metrics)
                  : renderMetrics(kEndToEnd, std::size(kEndToEnd),
                                  result.endToEnd, true, metrics);
    if (!ok)
        return 1;
    // Both sets of figures go to metrics.json in every run, so a traced
    // run's end-to-end figures can be set against an untraced run's
    // (the tracing overhead).
    std::string endToEnd, perLayer;
    renderMetrics(kEndToEnd, std::size(kEndToEnd), result.endToEnd, false,
                  endToEnd);
    renderMetrics(kPerLayer, std::size(kPerLayer), result.perLayer, false,
                  perLayer);
    if (std::FILE *f = std::fopen("metrics.json", "w")) {
        std::fprintf(f, "{\"trace\": %d, \"end_to_end\": %s, "
                        "\"per_layer\": %s}\n",
                     options.trace ? 1 : 0, endToEnd.c_str(),
                     perLayer.c_str());
        std::fclose(f);
    }
    if (options.trace && !tracer.write("trace.json")) {
        std::fprintf(stderr, "perfbench_driver: cannot write trace.json\n");
        return 1;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                metrics.c_str());
    return 0;
}
