// CI chaos smoke: sweeps every fault-injection site (src/support/
// fault.h) against the stage that owns it and proves the pipeline
// degrades instead of aborting — the executable check behind the
// "no fault site reachable from compile() can crash it" guarantee.
//
// For each compile-path site (egraph-alloc, shard-search, rebuild,
// egraph-metrics) the n=1 ordinal fault is armed and a full Fig. 3
// compile + lower + simulate runs; the result must still be
// numerically correct and the degradation must be recorded in
// CompileStats — for egraph-metrics, also in the metrics registry. The rule-parse
// site is driven through rules-file loading (must yield a diagnostic,
// not an abort) and synth-verify through a tiny synthesis run (must
// finish with the fault counted).
//
// Exits nonzero on the first site that aborts, produces a wrong
// program, or fails to record its degradation.

#include <cstdio>
#include <fstream>
#include <string>

#include "baseline/diospyros.h"
#include "baseline/harness.h"
#include "obs/metrics.h"
#include "phase/phase.h"
#include "support/fault.h"
#include "support/panic.h"
#include "synth/ruleset.h"
#include "synth/synthesize.h"

using namespace isaria;

namespace
{

/** One fault-injected compile of a 3x3 conv; true if it degraded
 *  cleanly to a correct program. */
bool
compileSurvives(FaultSite site)
{
    std::string spec = std::string(faultSiteName(site)) + ":1";
    auto plan = FaultPlan::parse(spec);
    if (!plan.ok()) {
        std::fprintf(stderr, "chaos_smoke: bad spec %s\n", spec.c_str());
        return false;
    }
    setFaultPlan(plan.value());

    CompilerConfig config;
    config.maxLoopIterations = 3;
    IsariaCompiler compiler(
        assignPhases(diospyrosHandRules(), config.costModel), config);
    KernelHarness harness(KernelSpec::conv2d(3, 3, 2, 2));
    RunOutcome outcome = harness.runCompiler(compiler);
    clearFaultPlan();

    const CompileStats &st = outcome.compileStats;
    if (!outcome.supported || !outcome.correct) {
        std::fprintf(stderr,
                     "chaos_smoke: %s produced a wrong program\n",
                     spec.c_str());
        return false;
    }
    if (st.degradation == DegradeLevel::None) {
        std::fprintf(stderr,
                     "chaos_smoke: %s fired but no degradation was "
                     "recorded\n",
                     spec.c_str());
        return false;
    }
    std::printf("  %-16s ok: %s, %llu cycles, cost %llu -> %llu\n",
                faultSiteName(site), degradeLevelName(st.degradation),
                static_cast<unsigned long long>(outcome.cycles),
                static_cast<unsigned long long>(st.initialCost),
                static_cast<unsigned long long>(st.finalCost));
    return true;
}

/** Reads a registry counter's current merged value (0 if never
 *  registered). */
std::uint64_t
registryCounter(const char *name)
{
    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    const obs::MetricValue *m = snap.find(name);
    return m ? m->counter : 0;
}

/** The egraph-metrics site fires at the always-on telemetry sampling
 *  point inside the saturation loop; beyond the usual clean-degrade
 *  check, the degradation must also land in the metrics registry —
 *  the counter an operator's dashboard would actually alert on. */
bool
metricsFaultCounted()
{
    std::uint64_t degradedBefore = registryCounter("compile/degraded");
    std::uint64_t faultsBefore = registryCounter("eqsat/faults");
    if (!compileSurvives(FaultSite::EGraphMetrics))
        return false;
    if (registryCounter("compile/degraded") <= degradedBefore ||
        registryCounter("eqsat/faults") <= faultsBefore) {
        std::fprintf(stderr,
                     "chaos_smoke: egraph-metrics degraded but the "
                     "metrics registry did not count it\n");
        return false;
    }
    return true;
}

bool
ruleParseSurvives()
{
    std::string path = "chaos_smoke.rules";
    {
        std::ofstream out(path);
        out << "r1: ?a ~> (+ ?a 0)\n";
    }
    auto plan = FaultPlan::parse("rule-parse:1");
    setFaultPlan(plan.value());
    auto got = loadRuleSetFile(path);
    clearFaultPlan();
    if (got.ok()) {
        std::fprintf(stderr,
                     "chaos_smoke: rule-parse fault did not surface\n");
        return false;
    }
    std::printf("  %-16s ok: diagnostic \"%s\"\n", "rule-parse",
                got.error().toString().c_str());
    return loadRuleSetFile(path).ok(); // one-shot: the retry works
}

bool
synthVerifySurvives()
{
    auto plan = FaultPlan::parse("synth-verify:1/2@7");
    setFaultPlan(plan.value());
    IsaSpec isa;
    SynthConfig config;
    config.timeoutSeconds = 10;
    config.maxRules = 40;
    config.enumConfig.maxDepth = 2;
    config.enumConfig.maxReps = 40;
    config.enumConfig.maxScalarCandidates = 600;
    config.enumConfig.maxVectorCandidates = 900;
    config.enumConfig.maxLiftCandidates = 900;
    SynthReport report = synthesizeRules(isa, config);
    clearFaultPlan();
    if (report.verifierFaults == 0) {
        std::fprintf(stderr,
                     "chaos_smoke: synth-verify faults never fired\n");
        return false;
    }
    std::printf("  %-16s ok: %zu verifier faults absorbed, %zu rules "
                "still emitted\n",
                "synth-verify", report.verifierFaults,
                report.rules.size());
    return true;
}

} // namespace

int
main()
{
    return guardedMain([&] {
        std::printf("chaos_smoke: sweeping %zu fault sites\n",
                    kNumFaultSites);
        bool ok = true;
        ok &= compileSurvives(FaultSite::EGraphAlloc);
        ok &= compileSurvives(FaultSite::ShardSearch);
        ok &= compileSurvives(FaultSite::Rebuild);
        ok &= metricsFaultCounted();
        ok &= ruleParseSurvives();
        ok &= synthVerifySurvives();
        if (!ok)
            return 1;
        std::printf("chaos_smoke ok: every site degraded cleanly\n");
        return 0;
    });
}
