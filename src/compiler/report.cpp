#include "compiler/report.h"

#include <cstdio>
#include <fstream>

#include "isa/machine_desc.h"
#include "obs/export.h"

namespace isaria
{

namespace
{

std::string
boolJson(bool value)
{
    return value ? "true" : "false";
}

/** Seconds → integral nanoseconds (what the histograms record). */
std::uint64_t
secondsToNs(double seconds)
{
    if (seconds <= 0)
        return 0;
    return static_cast<std::uint64_t>(seconds * 1e9);
}

} // namespace

std::string
eqSatReportJson(const EqSatReport &r)
{
    std::string out = "{";
    out += "\"stop\":\"" + std::string(stopReasonName(r.stop)) + "\"";
    out += ",\"iterations\":" + std::to_string(r.iterations);
    out += ",\"nodes\":" + std::to_string(r.nodes);
    out += ",\"classes\":" + std::to_string(r.classes);
    out += ",\"bytes\":" + std::to_string(r.bytes);
    out += ",\"wall_ns\":" + std::to_string(secondsToNs(r.seconds));
    out += ",\"search_ns\":" + std::to_string(secondsToNs(r.searchSeconds));
    out += ",\"apply_ns\":" + std::to_string(secondsToNs(r.applySeconds));
    out += ",\"threads\":" + std::to_string(r.threads);
    out += ",\"step_budget_exhausted\":" + boolJson(r.stepBudgetExhausted);
    out += ",\"fault_injected\":" + boolJson(r.faultInjected);
    out += ",\"sched_bans\":" + std::to_string(r.schedBans);
    out += ",\"sched_skipped_searches\":" +
           std::to_string(r.schedSkippedSearches);
    out += ",\"sched_throttled_matches\":" +
           std::to_string(r.schedThrottledMatches);
    out += "}";
    return out;
}

std::string
CompileReport::toJson() const
{
    const CompileStats &st = stats;
    std::string out = "{";
    out += "\"schema_version\":" +
           std::to_string(kCompileReportSchemaVersion);
    out += ",\"kernel\":\"" + obs::jsonEscape(kernel) + "\"";
    out += ",\"target\":\"" + obs::jsonEscape(target) + "\"";
    out += ",\"wall_ns\":" + std::to_string(secondsToNs(st.seconds));
    out += ",\"initial_cost\":" + std::to_string(st.initialCost);
    out += ",\"final_cost\":" + std::to_string(st.finalCost);
    out += ",\"loop_iterations\":" + std::to_string(st.loopIterations);
    out += ",\"eqsat_calls\":" + std::to_string(st.eqsatCalls);
    out += ",\"peak_nodes\":" + std::to_string(st.peakNodes);
    out += ",\"ran_out_of_memory\":" + boolJson(st.ranOutOfMemory);
    out += ",\"memo_hit\":" + boolJson(st.memoHit);
    out += ",\"degradation\":\"" +
           std::string(degradeLevelName(st.degradation)) + "\"";
    out += ",\"faults_injected\":" + std::to_string(st.faultsInjected);
    out += ",\"degrade_events\":[";
    for (std::size_t i = 0; i < st.degradeEvents.size(); ++i) {
        if (i)
            out += ',';
        out += "\"" + obs::jsonEscape(st.degradeEvents[i]) + "\"";
    }
    out += "]";
    out += ",\"rounds\":[";
    for (std::size_t i = 0; i < st.rounds.size(); ++i) {
        const RoundStats &round = st.rounds[i];
        if (i)
            out += ',';
        out += "{\"round\":" + std::to_string(round.round);
        out += ",\"ran_expansion\":" + boolJson(round.ranExpansion);
        if (round.ranExpansion)
            out += ",\"expansion\":" + eqSatReportJson(round.expansion);
        out += ",\"compilation\":" + eqSatReportJson(round.compilation);
        out +=
            ",\"extracted_cost\":" + std::to_string(round.extractedCost);
        out += "}";
    }
    out += "]";
    out += ",\"ran_optimization\":" + boolJson(st.ranOptimization);
    if (st.ranOptimization)
        out += ",\"optimization\":" + eqSatReportJson(st.optimization);
    out += "}";
    return out;
}

CompileReport
makeCompileReport(std::string kernel, const CompileStats &stats,
                  std::string target)
{
    CompileReport report;
    report.kernel = kernel.empty() ? "unknown" : std::move(kernel);
    report.target = target.empty() ? MachineDesc::fromEnv().name()
                                   : std::move(target);
    report.stats = stats;
    return report;
}

bool
writeCompileReport(const std::string &path, const CompileReport &report)
{
    std::string temp = path + ".tmp";
    {
        std::ofstream out(temp);
        if (!out) {
            std::fprintf(stderr,
                         "[report] cannot open report file: %s\n",
                         temp.c_str());
            return false;
        }
        out << report.toJson() << "\n";
        if (!out.good())
            return false;
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr, "[report] cannot publish report: %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

} // namespace isaria
