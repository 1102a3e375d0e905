// Tests for the parallel e-matching engine: thread-count determinism,
// step-budget slicing, and the incrementally-maintained e-graph
// indexes and counters that the saturation loop relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baseline/diospyros.h"
#include "egraph/extract.h"
#include "egraph/runner.h"
#include "frontend/kernels.h"
#include "isa/cost_model.h"
#include "term/sexpr.h"

namespace isaria
{
namespace
{

/** Saturates a fresh e-graph over @p program and extracts the best. */
std::string
saturateAndExtract(const RecExpr &program,
                   const std::vector<CompiledRule> &rules,
                   EqSatLimits limits, int threads,
                   EqSatReport *reportOut = nullptr)
{
    limits.numThreads = threads;
    EGraph eg;
    EClassId root = eg.addExpr(program);
    EqSatReport report = runEqSat(eg, rules, limits);
    if (reportOut)
        *reportOut = report;
    DspCostModel cost;
    auto best = extractBest(eg, root, cost);
    EXPECT_TRUE(best.has_value());
    return best ? printSexpr(best->expr) : std::string();
}

TEST(ParallelEqSat, ThreadCountResolution)
{
    EXPECT_EQ(resolveEqSatThreads(1), 1);
    EXPECT_EQ(resolveEqSatThreads(5), 5);
    EXPECT_GE(resolveEqSatThreads(0), 1);
}

TEST(ParallelEqSat, DeterministicOnSeedKernel)
{
    // The end-to-end guarantee: saturating the same kernel with 1
    // and N search threads yields byte-identical extractions and the
    // same e-graph statistics.
    auto rules = compileRules(diospyrosHandRules().rules());
    RecExpr program = liftKernel(make2DConv(3, 3, 2, 2), 4);
    EqSatLimits limits;
    limits.maxIters = 3;
    limits.maxNodes = 40'000;

    EqSatReport seqReport;
    std::string seq =
        saturateAndExtract(program, rules, limits, 1, &seqReport);
    ASSERT_FALSE(seq.empty());
    for (int threads : {2, 4, 8}) {
        EqSatReport parReport;
        std::string par = saturateAndExtract(program, rules, limits,
                                             threads, &parReport);
        EXPECT_EQ(seq, par) << "threads=" << threads;
        EXPECT_EQ(seqReport.nodes, parReport.nodes);
        EXPECT_EQ(seqReport.classes, parReport.classes);
        EXPECT_EQ(seqReport.iterations, parReport.iterations);
        EXPECT_EQ(parReport.threads, threads);
    }
}

TEST(ParallelEqSat, DeterministicUnderBindingBudgets)
{
    // Assoc+comm blowup with tight match and step budgets: the
    // budget slicing must be thread-count independent too.
    auto rules = compileRules({
        parseRule("(+ ?a ?b) ~> (+ ?b ?a)"),
        parseRule("(+ (+ ?a ?b) ?c) ~> (+ ?a (+ ?b ?c))"),
        parseRule("(+ ?a (+ ?b ?c)) ~> (+ (+ ?a ?b) ?c)"),
    });
    RecExpr program =
        parseSexpr("(+ a (+ b (+ c (+ d (+ e (+ f g))))))");
    EqSatLimits limits;
    limits.maxIters = 4;
    limits.maxNodes = 3'000;
    limits.maxMatchesPerRule = 300;
    limits.maxMatchesPerClass = 4;
    limits.maxSearchStepsPerRule = 2'000;

    EqSatReport seqReport;
    std::string seq =
        saturateAndExtract(program, rules, limits, 1, &seqReport);
    for (int threads : {3, 6}) {
        EqSatReport parReport;
        std::string par = saturateAndExtract(program, rules, limits,
                                             threads, &parReport);
        EXPECT_EQ(seq, par) << "threads=" << threads;
        EXPECT_EQ(seqReport.nodes, parReport.nodes);
        EXPECT_EQ(seqReport.classes, parReport.classes);
    }
}

TEST(ParallelEqSat, StepBudgetExhaustsMidClass)
{
    // Merge many additions into one class so a single class holds
    // multiple matching e-nodes; a small step budget must cut the
    // search inside that class, deterministically, and the matches it
    // does return must be a prefix of the unbudgeted matches.
    EGraph eg;
    std::vector<EClassId> roots;
    for (int i = 0; i < 8; ++i) {
        RecExpr e;
        NodeId a = e.addGet(internSymbol("sb"), 2 * i);
        NodeId b = e.addGet(internSymbol("sb"), 2 * i + 1);
        e.add(Op::Add, {a, b});
        roots.push_back(eg.addExpr(e));
    }
    for (std::size_t i = 1; i < roots.size(); ++i)
        eg.merge(roots[0], roots[i]);
    eg.rebuild();
    EClassId cls = eg.find(roots[0]);
    ASSERT_EQ(eg.eclass(cls).nodes.size(), 8u);

    CompiledPattern pat(parseSexpr("(+ ?a ?b)"));
    std::vector<PatternMatch> all;
    pat.searchClass(eg, cls, all, 100);
    ASSERT_EQ(all.size(), 8u);

    std::vector<PatternMatch> some;
    std::size_t steps = 5; // each emitted match costs one Bind dispatch
    pat.searchClass(eg, cls, some, 100, &steps);
    EXPECT_GT(some.size(), 0u);
    EXPECT_LT(some.size(), 8u);
    for (std::size_t i = 0; i < some.size(); ++i) {
        EXPECT_EQ(some[i].root, all[i].root);
        EXPECT_EQ(some[i].bindings, all[i].bindings);
    }

    // Budget zero finds nothing at all.
    std::vector<PatternMatch> none;
    std::size_t zero = 0;
    pat.searchClass(eg, cls, none, 100, &zero);
    EXPECT_TRUE(none.empty());
}

TEST(ParallelEqSat, IncrementalCountersMatchSlowScans)
{
    // Merge-heavy saturation: the O(1) counters must track the
    // ground-truth O(n) scans through adds, merges, and rebuilds.
    EGraph eg;
    eg.addExpr(parseSexpr("(+ (* a b) (+ (* b a) (+ a (+ b a))))"));
    EXPECT_EQ(eg.numNodes(), eg.numNodesSlow());
    EXPECT_EQ(eg.numClasses(), eg.numClassesSlow());

    auto rules = compileRules({
        parseRule("(+ ?a ?b) ~> (+ ?b ?a)"),
        parseRule("(* ?a ?b) ~> (* ?b ?a)"),
        parseRule("(+ (+ ?a ?b) ?c) ~> (+ ?a (+ ?b ?c))"),
    });
    EqSatLimits limits;
    limits.maxIters = 5;
    runEqSat(eg, rules, limits);
    EXPECT_EQ(eg.numNodes(), eg.numNodesSlow());
    EXPECT_EQ(eg.numClasses(), eg.numClassesSlow());

    // Manual congruence-heavy merges on top.
    EClassId x = eg.addExpr(parseSexpr("(neg a)"));
    EClassId y = eg.addExpr(parseSexpr("(neg b)"));
    eg.merge(eg.addExpr(parseSexpr("a")), eg.addExpr(parseSexpr("b")));
    eg.rebuild();
    EXPECT_TRUE(eg.same(x, y));
    EXPECT_EQ(eg.numNodes(), eg.numNodesSlow());
    EXPECT_EQ(eg.numClasses(), eg.numClassesSlow());
}

TEST(ParallelEqSat, OpIndexMatchesExhaustiveScan)
{
    EGraph eg;
    eg.addExpr(parseSexpr("(+ (* a b) (neg (+ c (* a c))))"));
    auto rules = compileRules({
        parseRule("(+ ?a ?b) ~> (+ ?b ?a)"),
        parseRule("(* ?a ?b) ~> (* ?b ?a)"),
        parseRule("(neg (neg ?a)) ~> ?a"),
    });
    EqSatLimits limits;
    limits.maxIters = 4;
    runEqSat(eg, rules, limits);

    for (Op op : {Op::Add, Op::Mul, Op::Neg, Op::Symbol, Op::Vec}) {
        std::set<EClassId> expected;
        for (EClassId id : eg.canonicalClasses()) {
            for (const ENode &node : eg.eclass(id).nodes) {
                if (node.op == op)
                    expected.insert(id);
            }
        }
        OpClassesView got = eg.classesWithOp(op);
        EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
        EXPECT_EQ(std::set<EClassId>(got.begin(), got.end()), expected)
            << "op index diverged for " << opInfo(op).name;
        // Every listed id must be canonical.
        for (EClassId id : got)
            EXPECT_EQ(eg.find(id), id);
    }
}

// ---------------------------------------------------------------------
// The backoff rule scheduler.

/** Explosive assoc/comm mixed with a directed simplification: the
 *  shape the backoff scheduler exists for. */
std::vector<CompiledRule>
backoffRules()
{
    return compileRules({
        parseRule("(+ ?a ?b) ~> (+ ?b ?a)"),
        parseRule("(+ (+ ?a ?b) ?c) ~> (+ ?a (+ ?b ?c))"),
        parseRule("(+ ?a 0) ~> ?a"),
    });
}

TEST(BackoffScheduler, NameRoundTrip)
{
    for (EqSatScheduler s :
         {EqSatScheduler::Simple, EqSatScheduler::Backoff}) {
        auto back = eqSatSchedulerFromName(eqSatSchedulerName(s));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, s);
    }
    EXPECT_FALSE(eqSatSchedulerFromName("no-such-policy").has_value());
}

TEST(BackoffScheduler, BansExplosiveRulesAndRecords)
{
    RecExpr program =
        parseSexpr("(+ a (+ b (+ c (+ d (+ e (+ f (+ g 0)))))))");
    EqSatLimits limits;
    limits.maxIters = 8;
    limits.maxNodes = 20'000;
    limits.scheduler = EqSatScheduler::Backoff;
    limits.schedMatchLimit = 8; // tiny: the comm/assoc rules must trip
    limits.schedBanLength = 2;

    auto rules = backoffRules();
    EGraph eg;
    EClassId root = eg.addExpr(program);
    EqSatReport report = runEqSat(eg, rules, limits);

    EXPECT_GT(report.schedBans, 0u);
    EXPECT_GT(report.schedSkippedSearches, 0u);
    EXPECT_GT(report.schedThrottledMatches, 0u);
    ASSERT_EQ(report.ruleApplied.size(), rules.size());
    ASSERT_EQ(report.ruleBannedIters.size(), rules.size());
    // The explosive rules (0: comm, 1: assoc) get banned; every rule
    // still applies at least once before its first ban.
    EXPECT_GT(report.ruleBannedIters[0] + report.ruleBannedIters[1], 0u);

    DspCostModel cost;
    auto best = extractBest(eg, root, cost);
    ASSERT_TRUE(best.has_value());
}

TEST(BackoffScheduler, SimpleSchedulerReportsNoActivity)
{
    RecExpr program = parseSexpr("(+ a (+ b (+ c 0)))");
    EqSatLimits limits;
    limits.maxIters = 4;
    EGraph eg;
    eg.addExpr(program);
    EqSatReport report = runEqSat(eg, backoffRules(), limits);
    EXPECT_EQ(report.schedBans, 0u);
    EXPECT_EQ(report.schedSkippedSearches, 0u);
    EXPECT_EQ(report.schedThrottledMatches, 0u);
}

TEST(BackoffScheduler, DeterministicAcrossThreadCounts)
{
    // The ISSUE's headline guarantee: scheduling decisions are made
    // from the deterministically merged match counts, so the backoff
    // run is byte-identical at any thread count — extracted term,
    // iteration count, and every per-rule counter.
    RecExpr program = liftKernel(make2DConv(3, 3, 2, 2), 4);
    auto rules = compileRules(diospyrosHandRules().rules());
    EqSatLimits limits;
    limits.maxIters = 4;
    limits.maxNodes = 40'000;
    limits.scheduler = EqSatScheduler::Backoff;
    limits.schedMatchLimit = 64;
    limits.schedBanLength = 2;

    EqSatReport seqReport;
    std::string seq =
        saturateAndExtract(program, rules, limits, 1, &seqReport);
    ASSERT_FALSE(seq.empty());
    for (int threads : {2, 4}) {
        EqSatReport parReport;
        std::string par = saturateAndExtract(program, rules, limits,
                                             threads, &parReport);
        EXPECT_EQ(seq, par) << "threads=" << threads;
        EXPECT_EQ(seqReport.nodes, parReport.nodes);
        EXPECT_EQ(seqReport.classes, parReport.classes);
        EXPECT_EQ(seqReport.iterations, parReport.iterations);
        EXPECT_EQ(seqReport.schedBans, parReport.schedBans);
        EXPECT_EQ(seqReport.schedSkippedSearches,
                  parReport.schedSkippedSearches);
        EXPECT_EQ(seqReport.schedThrottledMatches,
                  parReport.schedThrottledMatches);
        EXPECT_EQ(seqReport.ruleApplied, parReport.ruleApplied);
        EXPECT_EQ(seqReport.ruleMatches, parReport.ruleMatches);
        EXPECT_EQ(seqReport.ruleSearchSteps, parReport.ruleSearchSteps);
        EXPECT_EQ(seqReport.ruleBannedIters, parReport.ruleBannedIters);
    }
    // The per-rule vectors are populated, not just equal.
    ASSERT_EQ(seqReport.ruleMatches.size(), rules.size());
    ASSERT_EQ(seqReport.ruleSearchSteps.size(), rules.size());
    std::size_t matches = 0, steps = 0, applied = 0;
    for (std::size_t r = 0; r < rules.size(); ++r) {
        matches += seqReport.ruleMatches[r];
        steps += seqReport.ruleSearchSteps[r];
        applied += seqReport.ruleApplied[r];
    }
    EXPECT_GT(steps, 0u);
    EXPECT_GT(applied, 0u);
    // Every applied or throttled match was one the search kept.
    EXPECT_LE(applied + seqReport.schedThrottledMatches, matches);
}

TEST(BackoffScheduler, UnbansBeforeDeclaringSaturation)
{
    // A quiet iteration while rules sit banned is NOT saturation: the
    // scheduler must lift the bans and re-try before stopping. With a
    // generous iteration budget the backoff run must reach the same
    // saturated e-graph as the simple scheduler.
    RecExpr program = parseSexpr("(+ a (+ b (+ c 0)))");
    auto rules = backoffRules();

    EqSatLimits simple;
    simple.maxIters = 40;
    EGraph simpleEg;
    EClassId simpleRoot = simpleEg.addExpr(program);
    EqSatReport simpleReport = runEqSat(simpleEg, rules, simple);
    ASSERT_EQ(simpleReport.stop, StopReason::Saturated);

    EqSatLimits backoff = simple;
    backoff.scheduler = EqSatScheduler::Backoff;
    backoff.schedMatchLimit = 2;
    backoff.schedBanLength = 3;
    EGraph backoffEg;
    EClassId backoffRoot = backoffEg.addExpr(program);
    EqSatReport backoffReport = runEqSat(backoffEg, rules, backoff);
    EXPECT_EQ(backoffReport.stop, StopReason::Saturated);
    EXPECT_GT(backoffReport.schedBans, 0u);

    // Same fixpoint: node/class counts and the extracted term agree.
    EXPECT_EQ(simpleEg.numNodes(), backoffEg.numNodes());
    EXPECT_EQ(simpleEg.numClasses(), backoffEg.numClasses());
    DspCostModel cost;
    auto simpleBest = extractBest(simpleEg, simpleRoot, cost);
    auto backoffBest = extractBest(backoffEg, backoffRoot, cost);
    ASSERT_TRUE(simpleBest.has_value());
    ASSERT_TRUE(backoffBest.has_value());
    EXPECT_EQ(printSexpr(simpleBest->expr), printSexpr(backoffBest->expr));
    EXPECT_EQ(simpleBest->cost, backoffBest->cost);
}

TEST(ParallelEqSat, FrozenFindAgreesWithFind)
{
    EGraph eg;
    EClassId a = eg.addExpr(parseSexpr("(+ x (neg y))"));
    EClassId b = eg.addExpr(parseSexpr("(+ y (neg x))"));
    EClassId x = eg.addExpr(parseSexpr("x"));
    EClassId y = eg.addExpr(parseSexpr("y"));
    eg.merge(a, b);
    eg.merge(x, y);
    eg.rebuild();
    for (EClassId id : {a, b, x, y}) {
        EXPECT_EQ(eg.findFrozen(id), eg.find(id));
        EXPECT_EQ(&eg.eclassFrozen(id), &eg.eclass(id));
    }
}

} // namespace
} // namespace isaria
