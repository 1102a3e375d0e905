// Tests for the compile-time scheduler (Fig. 3) with a small
// hand-written phased rule system, so behaviour is deterministic and
// independent of synthesis.

#include <gtest/gtest.h>

#include "baseline/diospyros.h"
#include "compiler/compiler.h"
#include "term/sexpr.h"

namespace isaria
{
namespace
{

/** A compact rule system good enough to vectorize simple programs. */
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

TEST(Compiler, VectorizesThePaperExample)
{
    // Section 2.1's running example: three adds and a ragged lane.
    IsariaCompiler compiler = miniCompiler();
    RecExpr p = parseSexpr(
        "(List (Vec (+ (Get px 0) (Get py 0)) (+ (Get px 1) (Get py 1))"
        " (+ (Get px 2) (Get py 2)) (Get px 3)))");
    CompileStats stats;
    RecExpr out = compiler.compile(p, &stats);
    EXPECT_LT(stats.finalCost, stats.initialCost);
    EXPECT_TRUE(out.containsVectorOp());
    // The known-best form: one VecAdd of a contiguous load and a
    // zero-padded load.
    EXPECT_EQ(printSexpr(out),
              "(List (VecAdd (Vec (Get px 0) (Get px 1) (Get px 2) "
              "(Get px 3)) (Vec (Get py 0) (Get py 1) (Get py 2) 0)))");
}

TEST(Compiler, FusesMac)
{
    IsariaCompiler compiler = miniCompiler();
    RecExpr p = parseSexpr(
        "(List (Vec (+ (Get pa 0) (* (Get pb 0) (Get pc 0)))"
        " (+ (Get pa 1) (* (Get pb 1) (Get pc 1)))"
        " (+ (Get pa 2) (* (Get pb 2) (Get pc 2)))"
        " (+ (Get pa 3) (* (Get pb 3) (Get pc 3)))))");
    RecExpr out = compiler.compile(p);
    bool hasMac = false;
    for (NodeId id = 0; id < static_cast<NodeId>(out.size()); ++id)
        hasMac |= out.node(id).op == Op::VecMAC;
    EXPECT_TRUE(hasMac);
}

TEST(Compiler, StatsArepopulated)
{
    IsariaCompiler compiler = miniCompiler();
    RecExpr p = parseSexpr("(List (Vec (+ ?x 0) 0 0 0))");
    // Wildcards cannot enter an e-graph; use concrete terms.
    p = parseSexpr("(List (Vec (+ (Get ps 0) (Get ps 1)) 0 0 0))");
    CompileStats stats;
    compiler.compile(p, &stats);
    EXPECT_GT(stats.eqsatCalls, 0);
    EXPECT_GT(stats.loopIterations, 0);
    EXPECT_GT(stats.peakNodes, 0u);
    EXPECT_EQ(stats.reports.size(),
              static_cast<std::size_t>(stats.eqsatCalls));
    EXPECT_GT(stats.seconds, 0.0);
}

TEST(Compiler, IdempotentOnAlreadyVectorizedInput)
{
    IsariaCompiler compiler = miniCompiler();
    RecExpr p = parseSexpr(
        "(List (VecAdd (Vec (Get pv 0) (Get pv 1) (Get pv 2) (Get pv 3))"
        " (Vec (Get pw 0) (Get pw 1) (Get pw 2) (Get pw 3))))");
    CompileStats stats;
    RecExpr out = compiler.compile(p, &stats);
    EXPECT_EQ(stats.finalCost, stats.initialCost);
    EXPECT_TRUE(out.equalTree(p));
}

TEST(Compiler, NoPhasesModeRunsSingleSaturation)
{
    CompilerConfig config;
    config.phasing = false;
    IsariaCompiler compiler = miniCompiler(config);
    RecExpr p = parseSexpr(
        "(List (Vec (+ (Get pq 0) (Get pr 0)) (+ (Get pq 1) (Get pr 1))"
        " (+ (Get pq 2) (Get pr 2)) (+ (Get pq 3) (Get pr 3))))");
    CompileStats stats;
    compiler.compile(p, &stats);
    EXPECT_EQ(stats.eqsatCalls, 1);
    EXPECT_EQ(stats.loopIterations, 0);
}

TEST(Compiler, NoPruningModeKeepsOneEGraph)
{
    CompilerConfig config;
    config.pruning = false;
    IsariaCompiler compiler = miniCompiler(config);
    RecExpr p = parseSexpr(
        "(List (Vec (+ (Get pm 0) (Get pn 0)) (+ (Get pm 1) (Get pn 1))"
        " (+ (Get pm 2) (Get pn 2)) (Get pm 3)))");
    CompileStats stats;
    RecExpr out = compiler.compile(p, &stats);
    EXPECT_LT(stats.finalCost, stats.initialCost);
    EXPECT_TRUE(out.containsVectorOp());
}

TEST(Compiler, RespectsNodeBudgetAsMemoryLimit)
{
    CompilerConfig config;
    config.expansionLimits.maxNodes = 200;
    config.compilationLimits.maxNodes = 200;
    IsariaCompiler compiler = miniCompiler(config);
    RecExpr p = parseSexpr(
        "(List (Vec (+ (Get pz 0) (Get pz 1)) (+ (Get pz 2) (Get pz 3))"
        " (+ (Get pz 4) (Get pz 5)) (+ (Get pz 6) (Get pz 7))))");
    CompileStats stats;
    compiler.compile(p, &stats);
    for (const EqSatReport &r : stats.reports)
        EXPECT_LE(r.nodes, 3000u); // budget + one apply round of slack
}

// The two Speculative* cases keep the names of the deleted speculative
// loop's tests. That loop rolled back a round that did not improve;
// the one Fig. 3 loop gives the same guarantees without a rollback,
// because every round starts from a fresh e-graph seeded with the best
// program so far.

TEST(Compiler, SpeculativeNeverWorseThanPlain)
{
    // The seed program is in every round's e-graph, so no round can
    // extract a costlier program than the round before, and the
    // compile never reports a result worse than its input.
    RecExpr examples[] = {
        parseSexpr(
            "(List (Vec (+ (Get sx 0) (Get sy 0)) (+ (Get sx 1) (Get sy 1))"
            " (+ (Get sx 2) (Get sy 2)) (Get sx 3)))"),
        parseSexpr(
            "(List (Vec (+ (Get sa 0) (* (Get sb 0) (Get sc 0)))"
            " (+ (Get sa 1) (* (Get sb 1) (Get sc 1)))"
            " (+ (Get sa 2) (* (Get sb 2) (Get sc 2)))"
            " (+ (Get sa 3) (* (Get sb 3) (Get sc 3)))))"),
    };
    for (const RecExpr &p : examples) {
        SCOPED_TRACE(printSexpr(p));
        CompileStats stats;
        RecExpr out = miniCompiler().compile(p, &stats);
        ASSERT_FALSE(stats.rounds.empty());
        std::uint64_t previous = stats.initialCost;
        for (const RoundStats &round : stats.rounds) {
            EXPECT_LE(round.extractedCost, previous)
                << "round " << round.round;
            previous = round.extractedCost;
        }
        EXPECT_LE(stats.finalCost, previous);
        EXPECT_LE(stats.finalCost, stats.initialCost);
        EXPECT_TRUE(out.containsVectorOp());
    }
}

TEST(Compiler, SpeculativeRollsBackNonImprovingRound)
{
    // An already-vectorized input gives the loop nothing to improve:
    // its first round extracts a program of the input's cost, the loop
    // stops there, and the input comes back untouched.
    IsariaCompiler compiler = miniCompiler();
    RecExpr p = parseSexpr(
        "(List (VecAdd (Vec (Get sv 0) (Get sv 1) (Get sv 2) (Get sv 3))"
        " (Vec (Get sw 0) (Get sw 1) (Get sw 2) (Get sw 3))))");
    CompileStats stats;
    RecExpr out = compiler.compile(p, &stats);
    EXPECT_EQ(stats.loopIterations, 1);
    ASSERT_EQ(stats.rounds.size(), 1u);
    EXPECT_EQ(stats.rounds[0].extractedCost, stats.initialCost);
    EXPECT_EQ(stats.finalCost, stats.initialCost);
    EXPECT_TRUE(out.equalTree(p));
}

TEST(Diospyros, HandRulesAreSoundAndWellFormed)
{
    RuleSet rules = diospyrosHandRules();
    EXPECT_GE(rules.size(), 25u);
    for (const Rule &rule : rules.rules())
        EXPECT_TRUE(rule.wellFormed()) << rule.toString();
}

TEST(Diospyros, CompilerVectorizesRegularChunk)
{
    IsariaCompiler dios = makeDiospyrosCompiler();
    RecExpr p = parseSexpr(
        "(List (Vec (+ (Get da 0) (Get db 0)) (+ (Get da 1) (Get db 1))"
        " (+ (Get da 2) (Get db 2)) (+ (Get da 3) (Get db 3))))");
    CompileStats stats;
    RecExpr out = dios.compile(p, &stats);
    EXPECT_TRUE(out.containsVectorOp());
    EXPECT_LT(stats.finalCost, stats.initialCost);
}

} // namespace
} // namespace isaria
