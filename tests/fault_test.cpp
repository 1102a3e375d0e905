// Tests for the fault-tolerance layer: the deterministic fault-
// injection harness (src/support/fault.h), recoverable rules-file
// loading, resource guards (byte ceiling, cancellation, in-flight
// timeout checks), and the compiler's graceful-degradation ladder —
// including the invariant that no injected fault can make compile()
// abort, and that degraded output is identical at any thread count.

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "baseline/diospyros.h"
#include "compiler/compiler.h"
#include "egraph/extract.h"
#include "egraph/runner.h"
#include "frontend/kernels.h"
#include "lower/lower.h"
#include "support/fault.h"
#include "support/timer.h"
#include "synth/ruleset.h"
#include "synth/synthesize.h"
#include "term/sexpr.h"

namespace isaria
{
namespace
{

/** Arms a fault plan for one test and disarms it on exit. */
struct FaultGuard
{
    explicit FaultGuard(const char *spec)
    {
        auto plan = FaultPlan::parse(spec);
        EXPECT_TRUE(plan.ok()) << spec;
        setFaultPlan(plan.take());
    }
    ~FaultGuard() { clearFaultPlan(); }
};

/** The compact rule system of compiler_test, enough to vectorize. */
RuleSet
miniRules()
{
    RuleSet rules;
    auto add = [&](const char *text) {
        Rule r = parseRule(text);
        r.name = "mini";
        rules.add(std::move(r));
    };
    add("?a ~> (+ ?a 0)");
    add("(+ ?a 0) ~> ?a");
    add("(+ ?a ?b) ~> (+ ?b ?a)");
    add("(Vec (+ ?a0 ?b0) (+ ?a1 ?b1) (+ ?a2 ?b2) (+ ?a3 ?b3)) ~> "
        "(VecAdd (Vec ?a0 ?a1 ?a2 ?a3) (Vec ?b0 ?b1 ?b2 ?b3))");
    add("(Vec (* ?a0 ?b0) (* ?a1 ?b1) (* ?a2 ?b2) (* ?a3 ?b3)) ~> "
        "(VecMul (Vec ?a0 ?a1 ?a2 ?a3) (Vec ?b0 ?b1 ?b2 ?b3))");
    add("(VecAdd ?a (VecMul ?b ?c)) ~> (VecMAC ?a ?b ?c)");
    add("(VecAdd ?a ?b) ~> (VecAdd ?b ?a)");
    return rules;
}

IsariaCompiler
miniCompiler(CompilerConfig config = {})
{
    return IsariaCompiler(assignPhases(miniRules(), config.costModel),
                          config);
}

/** Section 2.1's running example. */
RecExpr
paperExample()
{
    return parseSexpr(
        "(List (Vec (+ (Get px 0) (Get py 0)) (+ (Get px 1) (Get py 1))"
        " (+ (Get px 2) (Get py 2)) (Get px 3)))");
}

// ---------------------------------------------------------------------
// The fault plan itself.

TEST(Fault, SiteNamesRoundTrip)
{
    for (std::size_t i = 0; i < kNumFaultSites; ++i) {
        FaultSite site = static_cast<FaultSite>(i);
        std::string name = faultSiteName(site);
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "?");
        auto back = faultSiteFromName(name);
        ASSERT_TRUE(back.has_value()) << name;
        EXPECT_EQ(*back, site);
    }
    EXPECT_FALSE(faultSiteFromName("no-such-site").has_value());
}

TEST(Fault, PlanParseAcceptsValidSpecs)
{
    auto one = FaultPlan::parse("egraph-alloc:3");
    ASSERT_TRUE(one.ok());
    const auto &alloc =
        one.value().sites[static_cast<std::size_t>(FaultSite::EGraphAlloc)];
    EXPECT_TRUE(alloc.armed);
    EXPECT_EQ(alloc.ordinal, 3u);

    auto multi = FaultPlan::parse("shard-search:1/2@99,rebuild:7");
    ASSERT_TRUE(multi.ok());
    const auto &shard =
        multi.value()
            .sites[static_cast<std::size_t>(FaultSite::ShardSearch)];
    EXPECT_TRUE(shard.armed);
    EXPECT_EQ(shard.ordinal, 0u);
    EXPECT_EQ(shard.numer, 1u);
    EXPECT_EQ(shard.denom, 2u);
    EXPECT_EQ(shard.seed, 99u);
    EXPECT_TRUE(
        multi.value()
            .sites[static_cast<std::size_t>(FaultSite::Rebuild)]
            .armed);
}

TEST(Fault, PlanParseRejectsMalformedSpecs)
{
    EXPECT_FALSE(FaultPlan::parse("no-such-site:1").ok());
    EXPECT_FALSE(FaultPlan::parse("egraph-alloc").ok());
    EXPECT_FALSE(FaultPlan::parse("egraph-alloc:0").ok());
    EXPECT_FALSE(FaultPlan::parse("egraph-alloc:x").ok());
    EXPECT_FALSE(FaultPlan::parse("egraph-alloc:1/0@5").ok());
    EXPECT_FALSE(FaultPlan::parse("egraph-alloc:1/2").ok());
}

TEST(Fault, OrdinalFiresExactlyOnce)
{
    FaultGuard guard("synth-verify:3");
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        fired += faultShouldFire(FaultSite::SynthVerify) ? 1 : 0;
    EXPECT_EQ(fired, 1);
    // Unarmed sites never fire.
    EXPECT_FALSE(faultShouldFire(FaultSite::Rebuild));
}

TEST(Fault, SeededCoinIsDeterministic)
{
    auto run = [] {
        std::string pattern;
        FaultGuard guard("synth-verify:1/3@12345");
        for (int i = 0; i < 64; ++i)
            pattern += faultShouldFire(FaultSite::SynthVerify) ? '1' : '0';
        return pattern;
    };
    std::string first = run();
    EXPECT_EQ(first, run());
    EXPECT_NE(first.find('1'), std::string::npos);
    EXPECT_NE(first.find('0'), std::string::npos);
}

// ---------------------------------------------------------------------
// Recoverable rules loading (satellite: malformed input diagnostics).

TEST(RulesLoading, TruncatedRuleReportsLineNumber)
{
    auto got = RuleSet::parse("good: ?a ~> (+ ?a 0)\n"
                              "bad: (+ ?a ?b) ~> (+ ?a\n");
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.error().line, 2);
    EXPECT_NE(got.error().message.find("bad rule"), std::string::npos);
    EXPECT_NE(got.error().toString().find("line 2"), std::string::npos);
}

TEST(RulesLoading, GarbageLineReportsLineNumber)
{
    auto got = RuleSet::parse("good: ?a ~> (+ ?a 0)\n"
                              "this is not a rule\n");
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.error().line, 2);
    EXPECT_NE(got.error().message.find("header"), std::string::npos);

    auto noArrow = RuleSet::parse("head: no arrow here\n");
    ASSERT_FALSE(noArrow.ok());
    EXPECT_EQ(noArrow.error().line, 1);
}

TEST(RulesLoading, DuplicateRuleReportsLineNumber)
{
    auto got = RuleSet::parse("r1: (+ ?a ?b) ~> (+ ?b ?a)\n"
                              "r2: (+ ?x ?y) ~> (+ ?y ?x)\n");
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.error().line, 2);
    EXPECT_NE(got.error().message.find("duplicate"), std::string::npos);
}

TEST(RulesLoading, SkipsCommentsAndBlankLines)
{
    auto got = RuleSet::parse("# a comment\n"
                              "\n"
                              "r1 [proved]: ?a ~> (+ ?a 0)\n");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().size(), 1u);
    EXPECT_TRUE(got.value()[0].verifiedExactly);
}

TEST(RulesLoading, FileErrorsComeBackAsDiagnostics)
{
    auto missing = loadRuleSetFile("/nonexistent/isaria.rules");
    ASSERT_FALSE(missing.ok());
    EXPECT_NE(missing.error().message.find("/nonexistent/isaria.rules"),
              std::string::npos);

    std::string path = testing::TempDir() + "fault_test.rules";
    {
        std::ofstream out(path);
        out << "r1: ?a ~> (+ ?a 0)\nr2: (+ ?a 0) ~> ?a\n";
    }
    auto good = loadRuleSetFile(path);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value().size(), 2u);

    {
        std::ofstream out(path);
        out << "r1: ?a ~> (+ ?a 0)\nbroken line\n";
    }
    auto bad = loadRuleSetFile(path);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().line, 2);
    EXPECT_NE(bad.error().message.find(path), std::string::npos);
}

TEST(RulesLoading, InjectedParseFaultIsADiagnosticNotAnAbort)
{
    std::string path = testing::TempDir() + "fault_test_ok.rules";
    {
        std::ofstream out(path);
        out << "r1: ?a ~> (+ ?a 0)\n";
    }
    FaultGuard guard("rule-parse:1");
    auto got = loadRuleSetFile(path);
    ASSERT_FALSE(got.ok());
    EXPECT_NE(got.error().message.find("rule-parse"), std::string::npos);
    // The fault was one-shot: the retry succeeds.
    EXPECT_TRUE(loadRuleSetFile(path).ok());
}

// ---------------------------------------------------------------------
// Resource guards in the saturation runner.

TEST(ResourceGuards, ByteCeilingStopsWithMemLimit)
{
    auto rules = compileRules(miniRules().rules());
    EGraph eg;
    eg.addExpr(paperExample());
    EXPECT_GT(eg.bytesUsed(), 0u);

    EqSatLimits limits;
    limits.maxBytes = 1; // already exceeded by the seed program
    EqSatReport report = runEqSat(eg, rules, limits);
    EXPECT_EQ(report.stop, StopReason::MemLimit);
    EXPECT_EQ(report.iterations, 0);
    EXPECT_GE(report.bytes, 1u);
}

TEST(ResourceGuards, PreCancelledTokenStopsImmediately)
{
    auto rules = compileRules(miniRules().rules());
    EGraph eg;
    eg.addExpr(paperExample());

    CancellationToken token;
    token.cancel();
    EqSatLimits limits;
    limits.cancel = &token;
    EqSatReport report = runEqSat(eg, rules, limits);
    EXPECT_EQ(report.stop, StopReason::Cancelled);
    EXPECT_EQ(report.iterations, 0);
}

// Satellite (a): the wall-clock budget is checked inside shard search
// and the apply loop, so even one enormous iteration cannot overshoot
// a small timeout by much. The bound here is deliberately loose for
// shared CI machines; the acceptance target is ~2x.
TEST(ResourceGuards, TimeoutStopsMidIteration)
{
    auto rules = compileRules(diospyrosHandRules().rules());
    RecExpr program = liftKernel(make2DConv(3, 3, 2, 2), 4);
    EGraph eg;
    eg.addExpr(program);

    EqSatLimits limits;
    limits.maxIters = 50;
    limits.maxNodes = 10'000'000;
    limits.maxSearchStepsPerRule = 1'000'000'000;
    limits.timeoutSeconds = 0.05;

    Stopwatch watch;
    EqSatReport report = runEqSat(eg, rules, limits);
    double elapsed = watch.elapsedSeconds();
    EXPECT_EQ(report.stop, StopReason::TimeLimit);
    EXPECT_LT(elapsed, 0.5) << "50 ms budget overshot to " << elapsed
                            << "s; in-flight checks are not firing";
}

// Extraction is the last unbounded loop after saturation stops, so it
// polls the same ExecControl sources the runner does. A fired token or
// deadline makes extractBest return nullopt within one poll stride
// instead of finishing the fixpoint on a huge e-graph.
TEST(ResourceGuards, CancelledExtractionStopsQuickly)
{
    auto rules = compileRules(diospyrosHandRules().rules());
    RecExpr program = liftKernel(make2DConv(3, 3, 2, 2), 4);
    EGraph eg;
    EClassId root = eg.addExpr(program);
    EqSatLimits limits;
    limits.maxIters = 2;
    limits.maxNodes = 60'000;
    runEqSat(eg, rules, limits);
    DspCostModel cost;

    // Sanity: without a control, extraction completes normally.
    ASSERT_TRUE(extractBest(eg, root, cost).has_value());

    CancellationToken token;
    token.cancel();
    ExecControl viaToken(nullptr, &token);
    Stopwatch watch;
    EXPECT_FALSE(extractBest(eg, root, cost, &viaToken).has_value());
    EXPECT_LT(watch.elapsedSeconds(), 0.5)
        << "cancelled extraction ran to completion anyway";

    Deadline expired(1e-9);
    ExecControl viaDeadline(&expired, nullptr);
    EXPECT_FALSE(extractBest(eg, root, cost, &viaDeadline).has_value());
}

// ---------------------------------------------------------------------
// The compiler's graceful-degradation ladder.

TEST(Degradation, MemLimitCompileDegradesToBestSoFar)
{
    CompilerConfig config;
    config.withMemLimitBytes(1);
    IsariaCompiler compiler = miniCompiler(config);
    RecExpr p = paperExample();
    CompileStats stats;
    RecExpr out = compiler.compile(p, &stats);

    // Nothing fit under the ceiling, so best-so-far is the input.
    EXPECT_EQ(printSexpr(out), printSexpr(p));
    EXPECT_TRUE(stats.ranOutOfMemory);
    EXPECT_EQ(stats.degradation, DegradeLevel::BestSoFar);
    EXPECT_FALSE(stats.degradeEvents.empty());
    EXPECT_NE(stats.toString().find("degraded: best-so-far"),
              std::string::npos);
}

TEST(Degradation, CancelledCompileReturnsBestSoFar)
{
    CancellationToken token;
    token.cancel();
    CompilerConfig config;
    config.withCancellation(&token);
    IsariaCompiler compiler = miniCompiler(config);
    RecExpr p = paperExample();
    CompileStats stats;
    RecExpr out = compiler.compile(p, &stats);

    EXPECT_EQ(printSexpr(out), printSexpr(p));
    EXPECT_EQ(stats.degradation, DegradeLevel::BestSoFar);
    EXPECT_EQ(stats.loopIterations, 1);
}

TEST(Degradation, FaultFreeRunsAreClean)
{
    IsariaCompiler compiler = miniCompiler();
    CompileStats stats;
    RecExpr out = compiler.compile(paperExample(), &stats);
    EXPECT_TRUE(out.containsVectorOp());
    EXPECT_EQ(stats.degradation, DegradeLevel::None);
    EXPECT_EQ(stats.faultsInjected, 0);
    EXPECT_TRUE(stats.degradeEvents.empty());
    EXPECT_EQ(stats.toString().find("degraded"), std::string::npos);
}

// Satellite (d): no fault site reachable from compile() can abort it;
// every injected fault still yields a lowerable List program.
TEST(Degradation, ChaosNeverAbortsCompile)
{
    for (std::size_t i = 0; i < kNumFaultSites; ++i) {
        FaultSite site = static_cast<FaultSite>(i);
        std::string spec = std::string(faultSiteName(site)) + ":1";
        FaultGuard guard(spec.c_str());

        IsariaCompiler compiler = miniCompiler();
        RecExpr p = paperExample();
        CompileStats stats;
        RecExpr out = compiler.compile(p, &stats);

        EXPECT_FALSE(printSexpr(out).empty()) << spec;
        LowerOptions options;
        options.width = 4;
        options.scalarizeRawChunks = true;
        EXPECT_TRUE(tryLowerProgram(out, options).ok()) << spec;

        // Sites on the compile path must have been absorbed as a
        // recorded degradation; the synthesis/loading sites simply
        // never arrive here. The metrics sampling point runs once per
        // saturation iteration, so it is a compile-path site too.
        if (site == FaultSite::EGraphAlloc ||
            site == FaultSite::ShardSearch ||
            site == FaultSite::Rebuild ||
            site == FaultSite::EGraphMetrics) {
            EXPECT_NE(stats.degradation, DegradeLevel::None) << spec;
        } else {
            EXPECT_EQ(stats.degradation, DegradeLevel::None) << spec;
        }
    }
}

TEST(Degradation, ChaosStormStillEmitsARunnableProgram)
{
    // All compile-path sites armed at once, with seeded coins, over a
    // few different seeds: compile() must always emit a lowerable
    // program no matter which combination of faults fires.
    for (std::uint64_t seed : {7u, 99u, 12345u}) {
        std::string spec = "egraph-alloc:1/16@" + std::to_string(seed) +
                           ",shard-search:1/4@" + std::to_string(seed) +
                           ",rebuild:1/3@" + std::to_string(seed);
        FaultGuard guard(spec.c_str());
        IsariaCompiler compiler = miniCompiler();
        CompileStats stats;
        RecExpr out = compiler.compile(paperExample(), &stats);
        LowerOptions options;
        options.width = 4;
        options.scalarizeRawChunks = true;
        EXPECT_TRUE(tryLowerProgram(out, options).ok()) << spec;
    }
}

// Satellite (d): a fault-injected compile produces the identical
// fallback program at any thread count — an interrupted iteration is
// abandoned wholesale, so the surviving e-graph does not depend on
// which thread hit the fault first.
TEST(Degradation, DegradedOutputIsThreadCountIndependent)
{
    for (const char *spec :
         {"shard-search:1", "rebuild:1", "egraph-alloc:5"}) {
        auto runAt = [&](int threads) {
            FaultGuard guard(spec);
            CompilerConfig config;
            config.withEqSatThreads(threads);
            IsariaCompiler compiler = miniCompiler(config);
            CompileStats stats;
            RecExpr out = compiler.compile(paperExample(), &stats);
            EXPECT_NE(stats.degradation, DegradeLevel::None) << spec;
            return printSexpr(out);
        };
        std::string sequential = runAt(1);
        std::string parallel = runAt(4);
        EXPECT_EQ(sequential, parallel) << spec;
    }
}

TEST(Degradation, ArmedFaultPlanKeepsBackoffSchedulerDeterministic)
{
    // The backoff scheduler's ban decisions are ordinal-based (per
    // iteration, per rule); a fault plan that let different thread
    // counts abandon different iterations would desync those ordinals
    // between runs. The runner therefore drops to one search thread
    // whenever a plan is armed (the sequential-fallback pattern rule
    // synthesis uses), so the banned-rule schedule — and the degraded
    // output — is identical whatever --eqsat-threads asked for.
    auto runAt = [&](int threads) {
        FaultGuard guard("shard-search:2");
        auto rules = compileRules(miniRules().rules());
        EGraph eg;
        EClassId root = eg.addExpr(paperExample());
        EqSatLimits limits;
        limits.maxIters = 6;
        limits.numThreads = threads;
        limits.scheduler = EqSatScheduler::Backoff;
        limits.schedMatchLimit = 4;
        limits.schedBanLength = 2;
        EqSatReport report = runEqSat(eg, rules, limits);
        EXPECT_EQ(report.threads, 1)
            << "armed plan must force the sequential fallback";
        DspCostModel cost;
        auto best = extractBest(eg, root, cost);
        EXPECT_TRUE(best.has_value());
        return std::make_tuple(report.stop, report.iterations,
                               report.schedBans,
                               report.schedSkippedSearches,
                               report.ruleApplied,
                               report.ruleBannedIters,
                               best ? printSexpr(best->expr)
                                    : std::string());
    };
    auto sequential = runAt(1);
    auto parallel = runAt(4);
    EXPECT_EQ(sequential, parallel);
}

// ---------------------------------------------------------------------
// Boundaries outside the compiler.

TEST(Boundaries, TryLowerReportsUnlowerableTerms)
{
    RecExpr notAList = parseSexpr("(+ (Get a 0) (Get b 0))");
    LowerOptions notAListOptions;
    notAListOptions.width = 4;
    auto got = tryLowerProgram(notAList, notAListOptions);
    ASSERT_FALSE(got.ok());
    EXPECT_NE(got.error().message.find("lowering failed"),
              std::string::npos);
}

TEST(Boundaries, InjectedVerifierFaultsShrinkNotAbortSynthesis)
{
    FaultGuard guard("synth-verify:1/2@4242");
    IsaSpec isa;
    SynthConfig config;
    config.timeoutSeconds = 10;
    config.maxRules = 60;
    config.enumConfig.maxDepth = 2;
    config.enumConfig.maxReps = 40;
    config.enumConfig.maxScalarCandidates = 800;
    config.enumConfig.maxVectorCandidates = 1200;
    config.enumConfig.maxLiftCandidates = 1200;
    SynthReport report = synthesizeRules(isa, config);
    EXPECT_GT(report.verifierFaults, 0u);
    // Degraded, not dead: the pipeline still runs to completion.
    for (const Rule &rule : report.rules.rules())
        EXPECT_TRUE(rule.wellFormed());
}

} // namespace
} // namespace isaria
