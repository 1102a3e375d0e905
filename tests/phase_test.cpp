// Tests for cost-based phase discovery (Section 3.2).

#include <gtest/gtest.h>

#include "isa/cost_model.h"
#include "isa/isa_spec.h"
#include "phase/phase.h"
#include "term/sexpr.h"

namespace isaria
{
namespace
{

DspCostModel
model()
{
    return DspCostModel(CostParams{});
}

TEST(CostModel, LeafCosts)
{
    DspCostModel m = model();
    EXPECT_EQ(m.exprCost(parseSexpr("7")), m.params().leaf);
    EXPECT_EQ(m.exprCost(parseSexpr("(Get a 3)")), m.params().leaf);
    EXPECT_EQ(m.exprCost(parseSexpr("?x")), m.params().leaf);
}

TEST(CostModel, ScalarOpsCostMoreThanVectorOps)
{
    DspCostModel m = model();
    std::uint64_t scalarAdd = m.exprCost(parseSexpr("(+ ?a ?b)"));
    std::uint64_t vectorAdd = m.exprCost(parseSexpr("(VecAdd ?a ?b)"));
    EXPECT_GT(scalarAdd, vectorAdd);
    // Beta sits between the two rule aggregates (Section 3.2).
    EXPECT_GT(2 * static_cast<std::int64_t>(scalarAdd),
              m.params().beta);
    EXPECT_LE(2 * static_cast<std::int64_t>(vectorAdd),
              m.params().beta);
}

TEST(CostModel, VecLiteralChargesLaneMoves)
{
    DspCostModel m = model();
    std::uint64_t leaves = m.exprCost(
        parseSexpr("(Vec (Get a 0) (Get a 1) (Get a 2) (Get a 3))"));
    std::uint64_t computed = m.exprCost(
        parseSexpr("(Vec (+ ?a ?b) (+ ?c ?d) (+ ?e ?f) (+ ?g ?h))"));
    // A vector of leaves is a load; computed lanes pay per-lane moves.
    EXPECT_LT(leaves, 10u);
    EXPECT_GT(computed, leaves + 4 * m.params().laneMove);
}

TEST(CostModel, StrictMonotonicity)
{
    // Definition 2: every term costs strictly more than any of its
    // direct subterms.
    DspCostModel m = model();
    const char *terms[] = {
        "(+ ?a ?b)",
        "(Vec ?a ?b ?c ?d)",
        "(VecMAC ?x ?y ?z)",
        "(sqrt (+ ?a 1))",
        "(VecAdd (Vec ?a ?b ?c ?d) (VecMul ?u ?v))",
        "(List (Vec ?a ?b ?c ?d))",
        "(Concat ?u ?v)",
        "(sqrtsgn ?a ?b)",
        "(mulsub ?x ?a ?b)",
    };
    for (const char *text : terms) {
        RecExpr e = parseSexpr(text);
        std::uint64_t total = m.exprCost(e);
        for (NodeId child : e.root().children) {
            EXPECT_LT(m.exprCost(e.subExpr(child)), total) << text;
        }
    }
}

TEST(Phase, CompilationRulesHaveLargeDifferential)
{
    Rule compile = parseRule(
        "(Vec (+ ?a0 ?b0) (+ ?a1 ?b1) (+ ?a2 ?b2) (+ ?a3 ?b3)) ~> "
        "(VecAdd (Vec ?a0 ?a1 ?a2 ?a3) (Vec ?b0 ?b1 ?b2 ?b3))");
    EXPECT_EQ(phaseOf(compile, model()), Phase::Compilation);
}

TEST(Phase, ScalarRulesAreExpansion)
{
    EXPECT_EQ(phaseOf(parseRule("(+ ?a ?b) ~> (+ ?b ?a)"), model()),
              Phase::Expansion);
    EXPECT_EQ(phaseOf(parseRule("?a ~> (+ ?a 0)"), model()),
              Phase::Expansion);
    EXPECT_EQ(phaseOf(parseRule("(+ (+ ?a ?b) ?c) ~> (+ ?a (+ ?b ?c))"),
                      model()),
              Phase::Expansion);
}

TEST(Phase, VectorRulesAreOptimization)
{
    EXPECT_EQ(phaseOf(parseRule("(VecAdd ?a ?b) ~> (VecAdd ?b ?a)"),
                      model()),
              Phase::Optimization);
    EXPECT_EQ(phaseOf(
                  parseRule("(VecAdd ?a (VecMul ?b ?c)) ~> "
                            "(VecMAC ?a ?b ?c)"),
                  model()),
              Phase::Optimization);
}

TEST(Phase, NestedVecRuleIsExpansion)
{
    // The paper's Section 3.2 example: a rule with VecAdd on both
    // sides that actually rewrites a scalar inside an inner Vec
    // literal must land in expansion, not optimization — the
    // syntactic strawman gets this wrong, the cost-based assignment
    // right.
    Rule nested = parseRule(
        "(VecAdd (Vec (+ ?a ?b) ?c ?d ?e) ?v) ~> "
        "(VecAdd (Vec (+ ?b ?a) ?c ?d ?e) ?v)");
    EXPECT_EQ(phaseOf(nested, model()), Phase::Expansion);
}

TEST(Phase, AssignPartitionsEverything)
{
    RuleSet rules;
    rules.add(parseRule("(+ ?a ?b) ~> (+ ?b ?a)"));
    rules.add(parseRule("(VecAdd ?a ?b) ~> (VecAdd ?b ?a)"));
    rules.add(parseRule(
        "(Vec (* ?a0 ?b0) (* ?a1 ?b1) (* ?a2 ?b2) (* ?a3 ?b3)) ~> "
        "(VecMul (Vec ?a0 ?a1 ?a2 ?a3) (Vec ?b0 ?b1 ?b2 ?b3))"));
    PhasedRules phased = assignPhases(rules, model());
    EXPECT_EQ(phased.all.size(), 3u);
    EXPECT_EQ(phased.countOf(Phase::Expansion), 1u);
    EXPECT_EQ(phased.countOf(Phase::Optimization), 1u);
    EXPECT_EQ(phased.countOf(Phase::Compilation), 1u);
    EXPECT_EQ(phased.ofPhase(Phase::Expansion).size(), 1u);
}

TEST(Phase, CsvHasHeaderAndRows)
{
    RuleSet rules;
    rules.add(parseRule("(+ ?a ?b) ~> (+ ?b ?a)"));
    PhasedRules phased = assignPhases(rules, model());
    std::string csv = phased.toCsv();
    EXPECT_NE(csv.find("name,phase,aggregate_cost,cost_differential"),
              std::string::npos);
    EXPECT_NE(csv.find("expansion"), std::string::npos);
}

TEST(Phase, AlphaBetaExtremesCollapsePhases)
{
    // Very large alpha and tiny beta push everything into expansion;
    // huge beta pushes the residue into optimization — the paper's
    // limit behaviour (Section 3.2).
    CostParams params;
    params.alpha = 1'000'000;
    params.beta = -1;
    DspCostModel extreme(params);
    EXPECT_EQ(phaseOf(parseRule("(VecAdd ?a ?b) ~> (VecAdd ?b ?a)"),
                      extreme),
              Phase::Expansion);
    params.beta = 1'000'000;
    DspCostModel extreme2(params);
    EXPECT_EQ(phaseOf(parseRule("(+ ?a ?b) ~> (+ ?b ?a)"), extreme2),
              Phase::Optimization);
}

TEST(IsaSpecTest, CustomInstructionToggles)
{
    // Pin the machine explicitly: this test is about the Fusion
    // custom-op toggles, not the session default target.
    IsaSpec base(MachineDesc::fusionG3());
    EXPECT_FALSE(base.opEnabled(Op::VecMulSub));
    EXPECT_FALSE(base.opEnabled(Op::SqrtSgn));
    EXPECT_TRUE(base.opEnabled(Op::VecMAC));
    EXPECT_EQ(base.name(), "fusion-g3-w4");

    IsaSpec custom(MachineDesc::fusionG3(/*mulSub=*/true, /*sqrtSgn=*/true));
    EXPECT_TRUE(custom.opEnabled(Op::VecMulSub));
    EXPECT_TRUE(custom.opEnabled(Op::VecSqrtSgn));
    EXPECT_EQ(custom.name(), "fusion-g3-w4+mulsub+sqrtsgn");
    EXPECT_GT(custom.scalarOps().size(), base.scalarOps().size());
    EXPECT_GT(custom.vectorOps().size(), base.vectorOps().size());
}

} // namespace
} // namespace isaria
