// Tests for the offline rule-synthesis pipeline: enumeration,
// shrinking, and lane generalization.

#include <gtest/gtest.h>

#include <set>

#include "compiler/pipeline.h"
#include "isa/machine_desc.h"
#include "support/thread_pool.h"
#include "synth/synthesize.h"
#include "term/sexpr.h"

namespace isaria
{
namespace
{

/** Small, fast synthesis configuration shared by the tests. */
SynthConfig
quickConfig()
{
    SynthConfig config;
    config.timeoutSeconds = 10;
    config.maxRules = 150;
    config.enumConfig.maxDepth = 2;
    config.enumConfig.maxReps = 80;
    config.enumConfig.maxScalarCandidates = 2000;
    config.enumConfig.maxVectorCandidates = 3000;
    config.enumConfig.maxLiftCandidates = 3000;
    return config;
}

TEST(Ruleset, AddDeduplicates)
{
    RuleSet set;
    EXPECT_TRUE(set.add(parseRule("(+ ?a ?b) ~> (+ ?b ?a)")));
    EXPECT_FALSE(set.add(parseRule("(+ ?x ?y) ~> (+ ?y ?x)")));
    EXPECT_TRUE(set.add(parseRule("(* ?a ?b) ~> (* ?b ?a)")));
    EXPECT_EQ(set.size(), 2u);
}

TEST(Ruleset, SerializationRoundTrip)
{
    RuleSet set;
    Rule a = parseRule("(+ ?a 0) ~> ?a");
    a.name = "id-add";
    a.verifiedExactly = true;
    set.add(a);
    Rule b = parseRule("(VecAdd ?a ?b) ~> (VecAdd ?b ?a)");
    b.name = "vec-comm";
    set.add(b);
    RuleSet back = RuleSet::fromString(set.toString());
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].name, "id-add");
    EXPECT_TRUE(back[0].verifiedExactly);
    EXPECT_FALSE(back[1].verifiedExactly);
    EXPECT_TRUE(back[0].sameAs(a));
    EXPECT_TRUE(back[1].sameAs(b));
}

TEST(Skolemize, ReplacesWildcardsWithSymbols)
{
    RecExpr ground = skolemize(parseSexpr("(+ ?a (* ?b ?a))"));
    for (NodeId id = 0; id < static_cast<NodeId>(ground.size()); ++id)
        EXPECT_NE(ground.node(id).op, Op::Wildcard);
    // Shared wildcards become the same symbol.
    const TermNode &root = ground.root();
    NodeId a1 = root.children[0];
    NodeId mul = root.children[1];
    NodeId a2 = ground.node(mul).children[1];
    EXPECT_EQ(ground.node(a1).payload, ground.node(a2).payload);
}

TEST(Enumerate, FindsCoreCandidates)
{
    IsaSpec isa;
    EnumConfig config;
    config.maxDepth = 2;
    config.maxReps = 60;
    config.maxScalarCandidates = 3000;
    config.maxVectorCandidates = 3000;
    config.maxLiftCandidates = 3000;
    EnumResult result = enumerateTerms(isa, config, Deadline::unlimited());
    EXPECT_GT(result.candidates.size(), 100u);

    // The commutativity collision must be among the candidates.
    bool foundComm = false;
    Rule comm = parseRule("(+ ?a ?b) ~> (+ ?b ?a)");
    for (const CandidatePair &pair : result.candidates) {
        Rule got{pair.a, pair.b, "", false};
        if (got.sameAs(comm) || got.sameAs(Rule{pair.b, pair.a, "", false}))
            foundComm = foundComm || got.sameAs(comm);
        Rule rev{pair.b, pair.a, "", false};
        foundComm = foundComm || rev.sameAs(comm);
    }
    EXPECT_TRUE(foundComm);
}

TEST(Enumerate, GroundPairsAreSkipped)
{
    IsaSpec isa;
    EnumConfig config;
    config.maxDepth = 2;
    config.maxReps = 40;
    EnumResult result = enumerateTerms(isa, config, Deadline::unlimited());
    for (const CandidatePair &pair : result.candidates) {
        EXPECT_TRUE(!pair.a.wildcardIds().empty() ||
                    !pair.b.wildcardIds().empty());
    }
}

TEST(Generalize, ScalarRulePassesThrough)
{
    RecExpr p = parseSexpr("(+ ?a ?b)");
    EXPECT_TRUE(generalizeToWidth(p, 4).equalTree(p));
}

TEST(Generalize, WholeVectorRulePassesThrough)
{
    RecExpr p = parseSexpr("(VecAdd ?u ?v)");
    EXPECT_TRUE(generalizeToWidth(p, 4).equalTree(p));
}

TEST(Generalize, ExpandsVecLanes)
{
    Rule narrow = parseRule(
        "(Vec (+ ?a ?b)) ~> (VecAdd (Vec ?a) (Vec ?b))");
    Rule wide = generalizeRule(narrow, 4);
    // Shape: 4 lanes with fresh per-lane wildcards, shared per lane
    // across both sides.
    Rule expected = parseRule(
        "(Vec (+ ?a0 ?b0) (+ ?a1 ?b1) (+ ?a2 ?b2) (+ ?a3 ?b3)) ~> "
        "(VecAdd (Vec ?a0 ?a1 ?a2 ?a3) (Vec ?b0 ?b1 ?b2 ?b3))");
    EXPECT_TRUE(wide.sameAs(expected));
    EXPECT_EQ(verifyRule(wide), Verdict::Proved);
}

TEST(Generalize, MacCompileRule)
{
    Rule narrow = parseRule(
        "(Vec (+ ?a (* ?b ?c))) ~> (VecMAC (Vec ?a) (Vec ?b) (Vec ?c))");
    Rule wide = generalizeRule(narrow, 2);
    Rule expected = parseRule(
        "(Vec (+ ?a0 (* ?b0 ?c0)) (+ ?a1 (* ?b1 ?c1))) ~> "
        "(VecMAC (Vec ?a0 ?a1) (Vec ?b0 ?b1) (Vec ?c0 ?c1))");
    EXPECT_TRUE(wide.sameAs(expected));
}

// Regression for the wildcard-aliasing bug: the old per-lane encoding
// (w * 16 + lane) wrapped into the next wildcard's band at width > 16
// — lane 17 of ?0 collided with lane 1 of ?1, silently unifying
// unrelated variables — and could even reach the whole-vector
// wildcard ids. The fixed encoding keeps every (wildcard, lane) pair
// distinct at any width, so each side of a 3-variable rule carries
// exactly 3 * width distinct per-lane wildcards.
TEST(Generalize, LaneIdsStayDistinctAtEveryWidth)
{
    Rule narrow = parseRule(
        "(Vec (+ ?a (* ?b ?c))) ~> (VecMAC (Vec ?a) (Vec ?b) (Vec ?c))");
    for (int width : {4, 16, 32}) {
        Rule wide = generalizeRule(narrow, width);
        std::vector<std::int32_t> lhsIds = wide.lhs.wildcardIds();
        std::vector<std::int32_t> rhsIds = wide.rhs.wildcardIds();
        std::set<std::int32_t> lhs(lhsIds.begin(), lhsIds.end());
        std::set<std::int32_t> rhs(rhsIds.begin(), rhsIds.end());
        EXPECT_EQ(lhs.size(), static_cast<std::size_t>(3 * width))
            << "width " << width << ": lane wildcards aliased";
        EXPECT_EQ(lhs, rhs) << "width " << width;
        EXPECT_TRUE(wide.wellFormed());
    }
    // Sampled verification still proves the widened rule (small
    // battery: 32-lane vectors are expensive to evaluate).
    VerifyOptions options;
    options.samples = 24;
    EXPECT_EQ(verifyRule(generalizeRule(narrow, 32), options),
              Verdict::Proved);
}

// A whole-vector wildcard passing through generalization verbatim must
// never collide with the fresh per-lane ids of a Vec literal in the
// same pattern.
TEST(Generalize, VectorWildcardsStayDisjointFromLaneIds)
{
    Rule narrow =
        parseRule("(VecAdd ?v (Vec (* ?a ?b))) ~> "
                  "(VecAdd ?v (VecMul (Vec ?a) (Vec ?b)))");
    for (int width : {4, 16, 32}) {
        Rule wide = generalizeRule(narrow, width);
        std::vector<std::int32_t> ids = wide.lhs.wildcardIds();
        std::set<std::int32_t> distinct(ids.begin(), ids.end());
        // ?v plus width lanes each of ?a and ?b.
        EXPECT_EQ(distinct.size(), static_cast<std::size_t>(2 * width + 1))
            << "width " << width;
        EXPECT_TRUE(wide.wellFormed());
    }
}

TEST(Enumerate, ParallelFingerprintingMatchesSequential)
{
    IsaSpec isa;
    EnumConfig config;
    config.maxDepth = 2;
    config.maxReps = 60;
    config.maxScalarCandidates = 1500;
    config.maxVectorCandidates = 2000;
    config.maxLiftCandidates = 2000;
    EnumResult seq = enumerateTerms(isa, config, Deadline::unlimited());
    ThreadPool pool(4);
    EnumResult par =
        enumerateTerms(isa, config, Deadline::unlimited(), &pool);
    EXPECT_EQ(seq.termsEnumerated, par.termsEnumerated);
    EXPECT_EQ(seq.classes, par.classes);
    ASSERT_EQ(seq.candidates.size(), par.candidates.size());
    for (std::size_t i = 0; i < seq.candidates.size(); ++i) {
        EXPECT_TRUE(seq.candidates[i].a.equalTree(par.candidates[i].a));
        EXPECT_TRUE(seq.candidates[i].b.equalTree(par.candidates[i].b));
    }
}

TEST(Synthesize, ProducesSoundUsefulRules)
{
    IsaSpec isa;
    SynthReport report = synthesizeRules(isa, quickConfig());
    EXPECT_GT(report.rules.size(), 40u);

    // Every emitted rule is well-formed and re-verifies.
    VerifyOptions strict;
    strict.samples = 256;
    strict.seed = 0xFEEDFACE; // independent of the synthesis seed
    for (const Rule &rule : report.rules.rules()) {
        EXPECT_TRUE(rule.wellFormed());
        EXPECT_NE(verifyRule(rule, strict), Verdict::Rejected)
            << rule.toString();
    }

    // The identity-padding rule pair of Section 2.1 must be present.
    EXPECT_TRUE(report.rules.contains(parseRule("?a ~> (+ ?a 0)")));
    EXPECT_TRUE(report.rules.contains(parseRule("(+ ?a 0) ~> ?a")));
}

TEST(Synthesize, EmitsVectorizationRules)
{
    IsaSpec isa;
    SynthConfig config = quickConfig();
    config.timeoutSeconds = 20;
    config.enumConfig.maxDepth = 3;
    SynthReport report = synthesizeRules(isa, config);

    // The per-op compile rule for addition, at width 4.
    Rule compileAdd = parseRule(
        "(Vec (+ ?a0 ?b0) (+ ?a1 ?b1) (+ ?a2 ?b2) (+ ?a3 ?b3)) ~> "
        "(VecAdd (Vec ?a0 ?a1 ?a2 ?a3) (Vec ?b0 ?b1 ?b2 ?b3))");
    EXPECT_TRUE(report.rules.contains(compileAdd));
}

TEST(Synthesize, RespectsRuleBudget)
{
    IsaSpec isa;
    SynthConfig config = quickConfig();
    config.maxRules = 30;
    SynthReport report = synthesizeRules(isa, config);
    EXPECT_LE(report.oneWideRules.size(), 30u);
}

// The tentpole determinism guarantee: verification is pure and
// decisions commit in cursor order, so the synthesized rule set is
// byte-identical at any thread count. Run with no wall-clock deadline
// so the only nondeterminism source (deadline exits) is off.
TEST(Synthesize, ByteIdenticalAcrossThreadCounts)
{
    IsaSpec isa;
    SynthConfig config;
    config.timeoutSeconds = 0; // unlimited: determinism must be exact
    config.maxRules = 40;
    config.enumConfig.maxDepth = 2;
    config.enumConfig.maxReps = 40;
    config.enumConfig.maxScalarCandidates = 500;
    config.enumConfig.maxVectorCandidates = 700;
    config.enumConfig.maxLiftCandidates = 700;

    config.numThreads = 1;
    SynthReport sequential = synthesizeRules(isa, config);
    EXPECT_EQ(sequential.verifyThreads, 1);

    config.numThreads = 4;
    SynthReport parallel = synthesizeRules(isa, config);
    EXPECT_EQ(parallel.verifyThreads, 4);

    EXPECT_EQ(sequential.oneWideRules.toString(),
              parallel.oneWideRules.toString());
    EXPECT_EQ(sequential.rules.toString(), parallel.rules.toString());
    EXPECT_EQ(sequential.candidatesConsidered,
              parallel.candidatesConsidered);
    EXPECT_EQ(sequential.rejectedUnsound, parallel.rejectedUnsound);
    EXPECT_EQ(sequential.prunedDerivable, parallel.prunedDerivable);
    EXPECT_EQ(sequential.duplicatePairs, parallel.duplicatePairs);
    EXPECT_EQ(sequential.droppedAtGeneralization,
              parallel.droppedAtGeneralization);
    // The parallel engine actually took the speculative path (the
    // 1-thread run verifies inline and never prefetches).
    EXPECT_GT(parallel.prefetchedVerifications, 0u);
    EXPECT_EQ(sequential.prefetchedVerifications, 0u);
}

// The rule set is a function of the ISA and the config. Under the
// integration suite's configuration (the session machine's defaults
// and a 20 s safety net) the work bounds, not the clock, end every
// phase, so the run is never deadline-cut and every thread count
// yields the same bytes. ByteIdenticalAcrossThreadCounts above runs
// with no deadline and tiny caps, so it never reaches the clock.
TEST(Synthesize, IntegrationConfigIsClockIndependent)
{
    const MachineDesc &machine = MachineDesc::fromEnv();
    IsaSpec isa(machine);
    SynthConfig config = synthConfigFor(machine);
    config.timeoutSeconds = 20;
    std::string reference;
    for (int threads : {1, 2, 4}) {
        config.numThreads = threads;
        config.derivLimits.numThreads = threads;
        SynthReport report = synthesizeRules(isa, config);
        EXPECT_FALSE(report.hitDeadline) << threads << " threads";
        std::string text = report.rules.toString();
        if (reference.empty())
            reference = text;
        else
            EXPECT_TRUE(text == reference)
                << "rule set at " << threads
                << " threads differs from the 1-thread one";
    }
}

TEST(Synthesize, CustomInstructionsEnterTheRuleset)
{
    IsaConfig ic;
    ic.enableSqrtSgn = true;
    IsaSpec isa(ic);
    SynthConfig config = quickConfig();
    config.timeoutSeconds = 15;
    SynthReport report = synthesizeRules(isa, config);
    bool mentionsSqrtSgn = false;
    for (const Rule &rule : report.rules.rules()) {
        for (NodeId id = 0;
             id < static_cast<NodeId>(rule.lhs.size()); ++id) {
            Op op = rule.lhs.node(id).op;
            mentionsSqrtSgn |= op == Op::SqrtSgn || op == Op::VecSqrtSgn;
        }
        for (NodeId id = 0;
             id < static_cast<NodeId>(rule.rhs.size()); ++id) {
            Op op = rule.rhs.node(id).op;
            mentionsSqrtSgn |= op == Op::SqrtSgn || op == Op::VecSqrtSgn;
        }
    }
    EXPECT_TRUE(mentionsSqrtSgn);
}

} // namespace
} // namespace isaria
