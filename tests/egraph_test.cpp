// Unit tests for the e-graph library: hashcons, congruence, matching,
// saturation, extraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "egraph/ematch.h"
#include "egraph/extract.h"
#include "egraph/runner.h"
#include "term/sexpr.h"

namespace isaria
{
namespace
{

/** Simple additive cost: every node costs 1 + sum of children. */
class UnitCost : public CostFn
{
  public:
    std::uint64_t
    nodeCost(Op, std::int64_t,
             std::span<const std::uint64_t> childCosts) const override
    {
        std::uint64_t c = 1;
        for (std::uint64_t child : childCosts)
            c = satAddCost(c, child);
        return c;
    }
};

TEST(EGraph, HashConsDedup)
{
    EGraph eg;
    EClassId a = eg.addExpr(parseSexpr("(+ x y)"));
    EClassId b = eg.addExpr(parseSexpr("(+ x y)"));
    EXPECT_EQ(eg.find(a), eg.find(b));
    // x, y, (+ x y) = 3 classes.
    EXPECT_EQ(eg.numClasses(), 3u);
    EXPECT_EQ(eg.numNodes(), 3u);
}

TEST(BindingVec, GrowthPastInlineCapacityKeepsBindings)
{
    // Regression: reserve() once reset size_ while spilling to the
    // heap, so the 17th push_back silently discarded the first 16
    // bindings. Push well past the inline capacity (through two
    // doublings) and check every element survives each growth.
    BindingVec v;
    const std::uint32_t n = BindingVec::kInlineCapacity * 3;
    for (std::uint32_t i = 0; i < n; ++i) {
        v.push_back(static_cast<EClassId>(i + 100));
        ASSERT_EQ(v.size(), i + 1u);
        for (std::uint32_t j = 0; j <= i; ++j)
            ASSERT_EQ(v[j], static_cast<EClassId>(j + 100));
    }

    // Copy and move of a heap-backed vector preserve contents too.
    BindingVec copy(v);
    EXPECT_TRUE(copy == v);
    BindingVec moved(std::move(copy));
    EXPECT_TRUE(moved == v);
    EXPECT_EQ(moved.size(), static_cast<std::size_t>(n));

    // An explicit oversized reserve (the non-doubling growth path)
    // also keeps existing bindings.
    BindingVec w;
    for (std::uint32_t i = 0; i < 5; ++i)
        w.push_back(static_cast<EClassId>(i));
    w.reserve(BindingVec::kInlineCapacity * 4);
    ASSERT_EQ(w.size(), 5u);
    for (std::uint32_t i = 0; i < 5; ++i)
        EXPECT_EQ(w[i], static_cast<EClassId>(i));
}

TEST(EGraph, DistinctTermsDistinctClasses)
{
    EGraph eg;
    EClassId a = eg.addExpr(parseSexpr("(+ x y)"));
    EClassId b = eg.addExpr(parseSexpr("(+ y x)"));
    EXPECT_NE(eg.find(a), eg.find(b));
}

TEST(EGraph, OpIndexViewValidWhileGraphUnchanged)
{
    EGraph eg;
    eg.addExpr(parseSexpr("(+ x y)"));
    OpClassesView view = eg.classesWithOp(Op::Add);
    ASSERT_EQ(view.size(), 1u);
    // Reads and lookups that don't mutate keep the view alive.
    EXPECT_EQ(eg.find(view[0]), view[0]);
    EXPECT_FALSE(view.empty());
    // Re-adding an existing term is not a structural mutation.
    eg.addExpr(parseSexpr("(+ x y)"));
    EXPECT_EQ(view.size(), 1u);
}

TEST(EGraphDeathTest, OpIndexViewDiesAfterInvalidation)
{
    // classesWithOp used to hand out a bare reference documented as
    // "valid until the next add/merge" with nothing enforcing it; the
    // generation-checked view turns that latent use-after-invalidate
    // into a loud assert.
    EGraph eg;
    eg.addExpr(parseSexpr("(+ x y)"));
    OpClassesView stale = eg.classesWithOp(Op::Add);
    eg.addExpr(parseSexpr("(* x y)")); // structural mutation
    EXPECT_DEATH((void)stale.size(),
                 "op-index view used after invalidation");

    OpClassesView staleMerge = eg.classesWithOp(Op::Add);
    eg.merge(eg.addExpr(parseSexpr("x")), eg.addExpr(parseSexpr("y")));
    EXPECT_DEATH((void)staleMerge.begin(),
                 "op-index view used after invalidation");
}

TEST(EGraph, MergeJoinsClasses)
{
    EGraph eg;
    EClassId a = eg.addExpr(parseSexpr("x"));
    EClassId b = eg.addExpr(parseSexpr("y"));
    EXPECT_TRUE(eg.merge(a, b));
    EXPECT_FALSE(eg.merge(a, b));
    EXPECT_TRUE(eg.same(a, b));
}

TEST(EGraph, CongruenceClosure)
{
    // Merging x = y must make f(x) = f(y) after rebuild.
    EGraph eg;
    EClassId fx = eg.addExpr(parseSexpr("(neg x)"));
    EClassId fy = eg.addExpr(parseSexpr("(neg y)"));
    EClassId x = eg.addExpr(parseSexpr("x"));
    EClassId y = eg.addExpr(parseSexpr("y"));
    EXPECT_FALSE(eg.same(fx, fy));
    eg.merge(x, y);
    eg.rebuild();
    EXPECT_TRUE(eg.same(fx, fy));
}

TEST(EGraph, NestedCongruence)
{
    EGraph eg;
    EClassId a = eg.addExpr(parseSexpr("(* (neg x) 2)"));
    EClassId b = eg.addExpr(parseSexpr("(* (neg y) 2)"));
    eg.merge(eg.addExpr(parseSexpr("x")), eg.addExpr(parseSexpr("y")));
    eg.rebuild();
    EXPECT_TRUE(eg.same(a, b));
}

TEST(EGraph, PayloadsKeepClassesApart)
{
    EGraph eg;
    EClassId c1 = eg.addExpr(parseSexpr("1"));
    EClassId c2 = eg.addExpr(parseSexpr("2"));
    EXPECT_FALSE(eg.same(c1, c2));
    EClassId g0 = eg.addExpr(parseSexpr("(Get a 0)"));
    EClassId g1 = eg.addExpr(parseSexpr("(Get a 1)"));
    EXPECT_FALSE(eg.same(g0, g1));
}

TEST(EMatch, LiteralPattern)
{
    EGraph eg;
    eg.addExpr(parseSexpr("(+ x y)"));
    eg.rebuild();
    CompiledPattern pat(parseSexpr("(+ x y)"));
    auto matches = pat.search(eg, 100);
    ASSERT_EQ(matches.size(), 1u);
}

TEST(EMatch, WildcardBindsAnyClass)
{
    EGraph eg;
    eg.addExpr(parseSexpr("(+ (neg a) (neg b))"));
    eg.rebuild();
    CompiledPattern pat(parseSexpr("(neg ?t)"));
    auto matches = pat.search(eg, 100);
    EXPECT_EQ(matches.size(), 2u);
}

TEST(EMatch, NonlinearPatternRequiresSameClass)
{
    EGraph eg;
    eg.addExpr(parseSexpr("(+ x x)"));
    eg.addExpr(parseSexpr("(+ x y)"));
    eg.rebuild();
    CompiledPattern pat(parseSexpr("(+ ?t ?t)"));
    auto matches = pat.search(eg, 100);
    ASSERT_EQ(matches.size(), 1u);
}

TEST(EMatch, MatchLimitRespected)
{
    EGraph eg;
    for (int i = 0; i < 10; ++i) {
        RecExpr e;
        e.add(Op::Neg, {e.addGet(internSymbol("arr"), i)});
        eg.addExpr(e);
    }
    eg.rebuild();
    CompiledPattern pat(parseSexpr("(neg ?t)"));
    auto matches = pat.search(eg, 3);
    EXPECT_EQ(matches.size(), 3u);
}

TEST(Rewrite, CommutativityCreatesEquivalence)
{
    EGraph eg;
    EClassId lhs = eg.addExpr(parseSexpr("(+ p q)"));
    EClassId target = eg.addExpr(parseSexpr("(+ q p)"));
    eg.rebuild();
    std::vector<CompiledRule> rules =
        compileRules({parseRule("(+ ?a ?b) ~> (+ ?b ?a)")});
    EqSatLimits limits;
    auto report = runEqSat(eg, rules, limits);
    EXPECT_EQ(report.stop, StopReason::Saturated);
    EXPECT_TRUE(eg.same(lhs, target));
}

TEST(Rewrite, AssociativitySaturates)
{
    EGraph eg;
    EClassId a = eg.addExpr(parseSexpr("(+ (+ x y) z)"));
    EClassId b = eg.addExpr(parseSexpr("(+ x (+ y z))"));
    eg.rebuild();
    auto rules = compileRules({
        parseRule("(+ (+ ?a ?b) ?c) ~> (+ ?a (+ ?b ?c))"),
        parseRule("(+ ?a ?b) ~> (+ ?b ?a)"),
    });
    EqSatLimits limits;
    runEqSat(eg, rules, limits);
    EXPECT_TRUE(eg.same(a, b));
}

TEST(Rewrite, VectorizationExample)
{
    // The paper's Section 2.1 example: (Vec (+ a b) (+ c d)) can be
    // compiled to a VecAdd of two Vec literals.
    EGraph eg;
    EClassId scalar = eg.addExpr(
        parseSexpr("(Vec (+ (Get x 0) (Get y 0)) (+ (Get x 1) (Get y 1)))"));
    EClassId vectorized = eg.addExpr(parseSexpr(
        "(VecAdd (Vec (Get x 0) (Get x 1)) (Vec (Get y 0) (Get y 1)))"));
    eg.rebuild();
    auto rules = compileRules({parseRule(
        "(Vec (+ ?a0 ?b0) (+ ?a1 ?b1)) ~> "
        "(VecAdd (Vec ?a0 ?a1) (Vec ?b0 ?b1))")});
    EqSatLimits limits;
    runEqSat(eg, rules, limits);
    EXPECT_TRUE(eg.same(scalar, vectorized));
}

TEST(Runner, NodeLimitStops)
{
    EGraph eg;
    // Assoc + comm over a chain of adds explodes combinatorially —
    // the NP-complete AC-matching blowup the paper discusses (§2.2).
    eg.addExpr(parseSexpr("(+ a (+ b (+ c (+ d (+ e f)))))"));
    eg.rebuild();
    auto rules = compileRules({
        parseRule("(+ ?a ?b) ~> (+ ?b ?a)"),
        parseRule("(+ (+ ?a ?b) ?c) ~> (+ ?a (+ ?b ?c))"),
        parseRule("(+ ?a (+ ?b ?c)) ~> (+ (+ ?a ?b) ?c)"),
    });
    EqSatLimits limits;
    limits.maxNodes = 50;
    limits.maxIters = 1000;
    auto report = runEqSat(eg, rules, limits);
    EXPECT_EQ(report.stop, StopReason::NodeLimit);
    EXPECT_GE(report.nodes, 50u);
}

TEST(Runner, IdentityPaddingRuleSaturatesViaHashCons)
{
    // `?a ~> (+ ?a 0)` looks infinitely applicable, but in an e-graph
    // the new node lands in the same class and hash-conses away.
    EGraph eg;
    eg.addExpr(parseSexpr("(+ x y)"));
    eg.rebuild();
    auto rules = compileRules({parseRule("?a ~> (+ ?a 0)")});
    EqSatLimits limits;
    limits.maxIters = 50;
    auto report = runEqSat(eg, rules, limits);
    EXPECT_EQ(report.stop, StopReason::Saturated);
    EXPECT_LT(report.nodes, 20u);
}

TEST(Runner, IterLimitStops)
{
    EGraph eg;
    eg.addExpr(parseSexpr("(+ x y)"));
    eg.rebuild();
    auto rules = compileRules({parseRule("?a ~> (+ ?a 0)")});
    EqSatLimits limits;
    limits.maxIters = 2;
    limits.maxNodes = 1'000'000;
    auto report = runEqSat(eg, rules, limits);
    EXPECT_EQ(report.stop, StopReason::IterLimit);
    EXPECT_EQ(report.iterations, 2);
}

TEST(Runner, SaturationOnFiniteSpace)
{
    EGraph eg;
    eg.addExpr(parseSexpr("(+ (+ a b) (+ c d))"));
    eg.rebuild();
    auto rules = compileRules({parseRule("(+ ?a ?b) ~> (+ ?b ?a)")});
    EqSatLimits limits;
    auto report = runEqSat(eg, rules, limits);
    EXPECT_EQ(report.stop, StopReason::Saturated);
}

TEST(EMatch, PerClassCapStillCoversAllClasses)
{
    // Regression: a small per-class cap must not starve later classes
    // (and the cap arithmetic must not overflow with the default
    // unlimited per-class value).
    EGraph eg;
    for (int i = 0; i < 6; ++i) {
        RecExpr e;
        NodeId a = e.addGet(internSymbol("pcc"), 2 * i);
        NodeId b = e.addGet(internSymbol("pcc"), 2 * i + 1);
        e.add(Op::Add, {a, b});
        eg.addExpr(e);
    }
    eg.rebuild();
    CompiledPattern pat(parseSexpr("(+ ?a ?b)"));
    auto matches = pat.search(eg, 1000, /*maxMatchesPerClass=*/1);
    EXPECT_EQ(matches.size(), 6u);
    // And the class roots must all be distinct.
    std::set<EClassId> roots;
    for (const PatternMatch &m : matches)
        roots.insert(m.root);
    EXPECT_EQ(roots.size(), 6u);
}

TEST(EMatch, PerClassCapClampedAgainstGlobalBudget)
{
    // Regression for the cap arithmetic in CompiledPattern::search:
    // when the per-class allowance meets or exceeds the remaining
    // global budget, the cap must clamp to the remainder — one class
    // must never push the total past maxMatches, and a large
    // per-class value must not overflow.
    EGraph eg;
    std::vector<EClassId> classRoots;
    for (int c = 0; c < 3; ++c) {
        std::vector<EClassId> members;
        for (int i = 0; i < 4; ++i) {
            RecExpr e;
            NodeId a = e.addGet(internSymbol("cap"), 100 * c + 2 * i);
            NodeId b = e.addGet(internSymbol("cap"), 100 * c + 2 * i + 1);
            e.add(Op::Add, {a, b});
            members.push_back(eg.addExpr(e));
        }
        for (std::size_t i = 1; i < members.size(); ++i)
            eg.merge(members[0], members[i]);
        classRoots.push_back(members[0]);
    }
    eg.rebuild();

    CompiledPattern pat(parseSexpr("(+ ?a ?b)"));
    // 12 matches exist (4 per class).
    EXPECT_EQ(pat.search(eg, 1000).size(), 12u);
    // Per-class cap larger than the whole budget: global cap rules.
    EXPECT_EQ(pat.search(eg, 3, /*maxMatchesPerClass=*/100).size(), 3u);
    // Unlimited per-class value must not overflow the cap arithmetic.
    EXPECT_EQ(pat.search(eg, 5).size(), 5u);
    // Small per-class cap spreads matches across classes: 2+2+1.
    auto spread = pat.search(eg, 5, /*maxMatchesPerClass=*/2);
    ASSERT_EQ(spread.size(), 5u);
    std::set<EClassId> roots;
    for (const PatternMatch &m : spread)
        roots.insert(m.root);
    EXPECT_EQ(roots.size(), 3u);
}

TEST(EMatch, StepBudgetBoundsBacktracking)
{
    EGraph eg;
    EClassId root = eg.addExpr(parseSexpr("(+ (+ a b) (+ c d))"));
    eg.rebuild();
    CompiledPattern pat(parseSexpr("(+ (+ ?a ?b) (+ ?c ?d))"));
    std::vector<PatternMatch> out;
    std::size_t steps = 1; // far too few to finish matching
    pat.searchClass(eg, root, out, 100, &steps);
    EXPECT_TRUE(out.empty());
    std::size_t plenty = 100000;
    pat.searchClass(eg, root, out, 100, &plenty);
    EXPECT_EQ(out.size(), 1u);
}

TEST(Runner, WildcardRootedRuleAppliesEverywhere)
{
    // The op-indexed search special-cases wildcard-rooted patterns;
    // they must still reach every class.
    EGraph eg;
    EClassId a = eg.addExpr(parseSexpr("(* wr1 wr2)"));
    eg.rebuild();
    std::size_t before = eg.numClasses();
    auto rules = compileRules({parseRule("?a ~> (+ ?a 0)")});
    EqSatLimits limits;
    limits.maxIters = 1;
    runEqSat(eg, rules, limits);
    // Every original class gained an Add node; at least the constant
    // class 0 is new.
    EXPECT_GT(eg.numClasses(), before);
    bool rootHasAdd = false;
    for (const ENode &node : eg.eclass(eg.find(a)).nodes)
        rootHasAdd |= node.op == Op::Add;
    EXPECT_TRUE(rootHasAdd);
}

TEST(Extract, PicksCheapestRepresentative)
{
    EGraph eg;
    EClassId root = eg.addExpr(parseSexpr("(+ (+ x 0) 0)"));
    eg.rebuild();
    auto rules = compileRules({parseRule("(+ ?a 0) ~> ?a")});
    EqSatLimits limits;
    runEqSat(eg, rules, limits);
    UnitCost cost;
    auto got = extractBest(eg, root, cost);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(printSexpr(got->expr), "x");
    EXPECT_EQ(got->cost, 1u);
}

TEST(Extract, HandlesCyclicClasses)
{
    EGraph eg;
    EClassId root = eg.addExpr(parseSexpr("(+ x 0)"));
    eg.rebuild();
    // Create a cycle: (+ x 0) = x, so the class of x contains a node
    // whose child is the class itself.
    auto rules = compileRules({
        parseRule("(+ ?a 0) ~> ?a"),
        parseRule("?a ~> (+ ?a 0)"),
    });
    EqSatLimits limits;
    limits.maxIters = 3;
    runEqSat(eg, rules, limits);
    UnitCost cost;
    auto got = extractBest(eg, root, cost);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(printSexpr(got->expr), "x");
}

TEST(Extract, SharedSubtermsCountedPerUse)
{
    EGraph eg;
    EClassId root = eg.addExpr(parseSexpr("(* (+ a b) (+ a b))"));
    eg.rebuild();
    UnitCost cost;
    auto got = extractBest(eg, root, cost);
    ASSERT_TRUE(got.has_value());
    // Tree cost: 7 (mul + two adds + four leaves).
    EXPECT_EQ(got->cost, 7u);
    // But the RecExpr is DAG-shared: 4 distinct nodes.
    EXPECT_EQ(got->expr.size(), 4u);
}

TEST(EGraph, BytesUsedExactAfterDedup)
{
    // Regression: dedupNodesInPlace used to refund only sizeof(ENode)
    // per dropped duplicate, leaking the spill-children bytes from the
    // accounting. Force duplicate wide nodes via congruence collapse
    // and check the incremental counter against a full recount.
    EGraph eg;
    RecExpr e1, e2;
    std::vector<NodeId> kids1, kids2;
    for (int i = 0; i < 6; ++i) {
        kids1.push_back(e1.addGet(internSymbol("bu"), i));
        // Same node except the last child, which will be merged in.
        kids2.push_back(e2.addGet(internSymbol("bu"), i == 5 ? 6 : i));
    }
    e1.add(Op::Vec, kids1);
    e2.add(Op::Vec, kids2);
    EClassId v1 = eg.addExpr(e1);
    EClassId v2 = eg.addExpr(e2);
    EClassId g5 = eg.addExpr(parseSexpr("(Get bu 5)"));
    EClassId g6 = eg.addExpr(parseSexpr("(Get bu 6)"));
    ASSERT_EQ(eg.bytesUsed(), eg.bytesUsedSlow());

    // (Get bu 5) = (Get bu 6) makes the two wide Vec nodes congruent:
    // their classes merge and one duplicate wide node is dropped.
    eg.merge(g5, g6);
    eg.rebuild();
    EXPECT_TRUE(eg.same(v1, v2));
    EXPECT_EQ(eg.bytesUsed(), eg.bytesUsedSlow());
    EXPECT_EQ(eg.numNodes(), eg.numNodesSlow());
}

TEST(EGraph, BytesUsedExactThroughSaturation)
{
    // The accounting holds at any eqsat thread count and with the
    // arena switched off (ISARIA_EGRAPH_ARENA=0 routes node storage to
    // the global allocator).
    struct Input
    {
        int threads;
        bool arena;
    };
    for (Input in : {Input{1, true}, Input{4, true}, Input{1, false}}) {
        SCOPED_TRACE("threads " + std::to_string(in.threads) +
                     (in.arena ? ", arena on" : ", arena off"));
        if (!in.arena)
            setenv("ISARIA_EGRAPH_ARENA", "0", 1);
        EGraph eg;
        unsetenv("ISARIA_EGRAPH_ARENA");
        ASSERT_EQ(eg.arenaStats().arenaEnabled, in.arena);

        eg.addExpr(parseSexpr("(+ (+ ba bb) (* bc (+ bd be)))"));
        eg.rebuild();
        EXPECT_EQ(eg.bytesUsed(), eg.bytesUsedSlow());
        std::size_t seeded = eg.numNodes();
        auto rules = compileRules({
            parseRule("(+ ?a ?b) ~> (+ ?b ?a)"),
            parseRule("(+ (+ ?a ?b) ?c) ~> (+ ?a (+ ?b ?c))"),
            parseRule("(* ?a (+ ?b ?c)) ~> (+ (* ?a ?b) (* ?a ?c))"),
        });
        EqSatLimits limits;
        limits.maxIters = 4;
        limits.maxNodes = 20'000;
        limits.numThreads = in.threads;
        runEqSat(eg, rules, limits);
        EXPECT_GT(eg.numNodes(), seeded); // the rules really fired
        EXPECT_EQ(eg.bytesUsed(), eg.bytesUsedSlow());
        EXPECT_EQ(eg.numNodes(), eg.numNodesSlow());
        EXPECT_EQ(eg.numClasses(), eg.numClassesSlow());
    }
}

// ---------------------------------------------------------------------
// Copies. A copy made with the EGraph copy constructor is the
// e-graph's snapshot: mutating or saturating the source — at 1 and 4
// eqsat threads, with the arena on and off — must leave the copy the
// exact graph it was copied from, and the copy, saturated the same
// way, must land on the source's graph.

/**
 * A canonical, order-independent structural fingerprint: every
 * canonical class with its node multiset, children resolved to
 * canonical ids. Two graphs with equal fingerprints are structurally
 * identical (same classes, same membership).
 */
std::string
graphFingerprint(const EGraph &eg)
{
    std::vector<EClassId> roots = eg.canonicalClasses();
    std::sort(roots.begin(), roots.end());
    std::ostringstream out;
    for (EClassId root : roots) {
        std::vector<std::string> nodes;
        for (const ENode &node : eg.eclass(root).nodes) {
            std::ostringstream n;
            n << static_cast<int>(node.op) << ':' << node.payload << '(';
            for (EClassId child : node.children)
                n << eg.find(child) << ',';
            n << ')';
            nodes.push_back(n.str());
        }
        std::sort(nodes.begin(), nodes.end());
        out << root << '{';
        for (const std::string &n : nodes)
            out << n << ' ';
        out << "}\n";
    }
    return out.str();
}

struct GraphState
{
    std::size_t numNodes, numClasses, numIds, bytesUsed;
    std::string fingerprint;
    std::string bestExpr;
    std::uint64_t bestCost;
};

GraphState
captureState(const EGraph &eg, EClassId root)
{
    UnitCost cost;
    auto best = extractBest(eg, eg.find(root), cost);
    EXPECT_TRUE(best.has_value());
    return GraphState{eg.numNodes(),  eg.numClasses(),
                      eg.numIds(),    eg.bytesUsed(),
                      graphFingerprint(eg),
                      best ? printSexpr(best->expr) : "",
                      best ? best->cost : 0};
}

void
expectStateEqual(const GraphState &a, const GraphState &b)
{
    EXPECT_EQ(a.numNodes, b.numNodes);
    EXPECT_EQ(a.numClasses, b.numClasses);
    EXPECT_EQ(a.numIds, b.numIds);
    EXPECT_EQ(a.bytesUsed, b.bytesUsed);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.bestExpr, b.bestExpr);
    EXPECT_EQ(a.bestCost, b.bestCost);
}

TEST(EGraph, CopyIsIndependent)
{
    EGraph eg;
    EClassId root = eg.addExpr(parseSexpr("(+ (neg k) k)"));
    // Wider than ChildArray's inline capacity: the copy must give the
    // spilled children storage of its own.
    EClassId wide = eg.addExpr(parseSexpr("(Vec k k k k k (neg k) k k)"));
    eg.rebuild();

    EGraph copy = eg;
    EXPECT_NE(copy.graphId(), eg.graphId());
    GraphState rootState = captureState(eg, root);
    GraphState wideState = captureState(eg, wide);
    expectStateEqual(captureState(copy, root), rootState);
    expectStateEqual(captureState(copy, wide), wideState);

    // Mutating the source never touches the copy.
    eg.merge(eg.addExpr(parseSexpr("(* k k)")), root);
    // (neg k) = k rewrites a spilled child of the wide Vec.
    eg.merge(eg.addExpr(parseSexpr("(neg k)")), eg.addExpr(parseSexpr("k")));
    eg.rebuild();
    EXPECT_EQ(eg.bytesUsed(), eg.bytesUsedSlow());
    expectStateEqual(captureState(copy, root), rootState);
    expectStateEqual(captureState(copy, wide), wideState);
    EXPECT_EQ(copy.bytesUsed(), copy.bytesUsedSlow());
    EXPECT_EQ(copy.classesWithOp(Op::Mul).size(), 0u);
}

/** copy -> saturate the source: the copy is unchanged, and replays. */
void
runSaturationDifferential(int numThreads, bool arena)
{
    if (!arena)
        setenv("ISARIA_EGRAPH_ARENA", "0", 1);
    EGraph eg;
    unsetenv("ISARIA_EGRAPH_ARENA");
    ASSERT_EQ(eg.arenaStats().arenaEnabled, arena);
    EClassId root =
        eg.addExpr(parseSexpr("(* (+ a (+ b (+ c d))) (+ e f))"));
    eg.rebuild();
    GraphState before = captureState(eg, root);
    ASSERT_EQ(eg.bytesUsed(), eg.bytesUsedSlow());

    EGraph snapshot = eg;
    EXPECT_EQ(snapshot.arenaStats().arenaEnabled, arena);

    // The explosive AC rule set (the Section 2.2 blowup).
    auto rules = compileRules({
        parseRule("(+ ?a ?b) ~> (+ ?b ?a)"),
        parseRule("(+ (+ ?a ?b) ?c) ~> (+ ?a (+ ?b ?c))"),
        parseRule("(* ?a ?b) ~> (* ?b ?a)"),
    });
    EqSatLimits limits;
    limits.maxIters = 4;
    limits.maxNodes = 20'000;
    limits.numThreads = numThreads;
    runEqSat(eg, rules, limits);
    EXPECT_GT(eg.numNodes(), before.numNodes); // the rules really fired

    expectStateEqual(captureState(snapshot, root), before);
    EXPECT_EQ(snapshot.bytesUsed(), snapshot.bytesUsedSlow());
    EXPECT_EQ(snapshot.numNodes(), snapshot.numNodesSlow());
    EXPECT_EQ(snapshot.numClasses(), snapshot.numClassesSlow());

    runEqSat(snapshot, rules, limits);
    expectStateEqual(captureState(snapshot, root), captureState(eg, root));
    EXPECT_EQ(snapshot.bytesUsed(), snapshot.bytesUsedSlow());
}

TEST(Snapshot, SaturationDifferentialSingleThread)
{
    runSaturationDifferential(1, true);
}

TEST(Snapshot, SaturationDifferentialFourThreads)
{
    runSaturationDifferential(4, true);
}

TEST(Snapshot, SaturationDifferentialArenaDisabled)
{
    // ISARIA_EGRAPH_ARENA=0 routes node storage to the global
    // allocator; the copy must keep that mode and stay exact in it.
    runSaturationDifferential(1, false);
}

TEST(Extract, EmptyClassImpossible)
{
    EGraph eg;
    EClassId root = eg.addExpr(parseSexpr("(sqrt x)"));
    eg.rebuild();
    UnitCost cost;
    EXPECT_TRUE(extractBest(eg, root, cost).has_value());
}

} // namespace
} // namespace isaria
