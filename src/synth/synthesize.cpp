#include "synth/synthesize.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "support/fault.h"
#include "support/hash.h"
#include "support/panic.h"
#include "support/thread_pool.h"

namespace isaria
{

namespace
{

/**
 * Per-lane scalar wildcards get ids in a reserved band far above both
 * the enumeration grammar's scalar ids (0, 1, 2, ...) and the vector
 * wildcard ids (kVectorWildcardBase + v = 1000, 1001, ...). The old
 * encoding `w * 16 + lane` aliased: scalar wildcard 62 at lane 8
 * collided with lane 0 of wildcard 63, and any width > 16 wrapped
 * lanes into the next wildcard's band — either way two unrelated
 * variables silently unified and the generalized rule claimed more
 * than was verified.
 */
constexpr std::int32_t kLaneWildcardBase = 1 << 20;

/** Scalar wildcard id for lane @p lane of original wildcard @p w. */
std::int32_t
laneScalarId(std::int32_t w, int lane, int width)
{
    return kLaneWildcardBase + w * width + lane;
}

NodeId
generalizeNode(const RecExpr &src, NodeId id,
               const std::vector<Sort> &sorts, int lane, int width,
               RecExpr &out)
{
    const TermNode &n = src.node(id);
    switch (n.op) {
      case Op::Vec: {
        ISARIA_ASSERT(n.children.size() == 1,
                      "generalizing a Vec that is not 1-wide");
        std::vector<NodeId> kids;
        kids.reserve(width);
        for (int l = 0; l < width; ++l) {
            kids.push_back(
                generalizeNode(src, n.children[0], sorts, l, width, out));
        }
        return out.add(Op::Vec, std::move(kids));
      }
      case Op::Wildcard: {
        auto w = static_cast<std::int32_t>(n.payload);
        if (sorts[id] == Sort::Vector)
            return out.addWildcard(w); // whole-vector variable
        ISARIA_ASSERT(lane >= 0, "scalar wildcard outside any Vec");
        return out.addWildcard(laneScalarId(w, lane, width));
      }
      default: {
        std::vector<NodeId> kids;
        kids.reserve(n.children.size());
        for (NodeId child : n.children) {
            kids.push_back(
                generalizeNode(src, child, sorts, lane, width, out));
        }
        return out.add(n.op, std::move(kids), n.payload);
      }
    }
}

/**
 * Canonical key for an unordered candidate pair: the two directional
 * canonical hashes, sorted, folded with hashCombine. The previous key
 * XORed them, which is order-independent but also self-annihilating —
 * any palindromic pair (a, a-renamed) XORed to the same neighbourhood,
 * and two unrelated pairs whose hashes happened to share the XOR
 * collided silently, dropping a sound candidate before verification.
 */
std::size_t
pairKey(const CandidatePair &pair)
{
    Rule ab{pair.a, pair.b, "", false};
    Rule ba{pair.b, pair.a, "", false};
    std::size_t lo = ab.canonical().hash();
    std::size_t hi = ba.canonical().hash();
    if (lo > hi)
        std::swap(lo, hi);
    std::size_t key = lo;
    hashCombine(key, hi);
    return key;
}

/** Verdict of one speculative verifyRule call. An exception escaping
 *  the worker is parked here and rethrown when the candidate is
 *  consumed in sequential order, so parallel runs fail at the same
 *  candidate the sequential engine would. */
struct VerifyOutcome
{
    Verdict verdict = Verdict::Rejected;
    std::exception_ptr error;
};

struct ScoredCandidate
{
    CandidatePair pair;
    std::size_t score;
    bool dead = false;
    /** A speculative verdict is ready in `outcome`. */
    bool verified = false;
    VerifyOutcome outcome;
};

/**
 * Verification with the synth-verify fault site in front: an injected
 * fault rejects the candidate (the conservative direction — a missing
 * rule only costs optimization quality, an unsound one costs
 * correctness) instead of aborting the pipeline.
 */
Verdict
checkedVerify(const Rule &rule, const VerifyOptions &options,
              SynthReport &report)
{
    try {
        faultPoint(FaultSite::SynthVerify);
        return verifyRule(rule, options);
    } catch (const FaultInjected &) {
        ++report.verifierFaults;
        return Verdict::Rejected;
    }
}

} // namespace

RecExpr
generalizeToWidth(const RecExpr &pattern, int width)
{
    bool hasVecLiteral = false;
    for (NodeId id = 0; id < static_cast<NodeId>(pattern.size()); ++id)
        hasVecLiteral |= pattern.node(id).op == Op::Vec;
    if (!hasVecLiteral)
        return pattern; // scalar or whole-vector rule: nothing to widen
    // Disjointness guard: whole-vector wildcards pass through with
    // their original ids, so every original id must sit strictly below
    // the per-lane band, and the widest per-lane id must not overflow.
    for (std::int32_t w : pattern.wildcardIds()) {
        ISARIA_ASSERT(w >= 0 && w < kLaneWildcardBase,
                      "original wildcard id reaches the per-lane band");
        ISARIA_ASSERT(
            w <= (std::numeric_limits<std::int32_t>::max() -
                  kLaneWildcardBase - (width - 1)) /
                     std::max(width, 1),
            "lane generalization would overflow the wildcard id space");
    }
    RecExpr out;
    std::vector<Sort> sorts = pattern.inferSorts();
    generalizeNode(pattern, pattern.rootId(), sorts, /*lane=*/-1, width,
                   out);
    return out;
}

Rule
generalizeRule(const Rule &rule, int width)
{
    Rule out;
    out.lhs = generalizeToWidth(rule.lhs, width);
    out.rhs = generalizeToWidth(rule.rhs, width);
    out.name = rule.name;
    out.verifiedExactly = rule.verifiedExactly;
    return out;
}

SynthConfig
effectiveSynthConfig(const IsaSpec &isa, SynthConfig config)
{
    config.verify.defaultWidth = isa.vectorWidth();
    return config;
}

SynthReport
synthesizeRules(const IsaSpec &isa, const SynthConfig &rawConfig)
{
    const SynthConfig config = effectiveSynthConfig(isa, rawConfig);
    SynthReport report;
    Deadline deadline(config.timeoutSeconds);
    Stopwatch watch;
    obs::Span synthSpan("synth/run");

    // Worker pool for the two pure hot loops: cvec fingerprinting and
    // candidate verification. Verification is only parallelized when
    // no fault plan is armed — the SynthVerify fault site counts
    // arrival ordinals, and those must match the sequential engine's
    // for fault tests to stay deterministic. Fingerprinting has no
    // fault site and parallelizes unconditionally.
    ThreadPool workers(
        static_cast<unsigned>(resolveEqSatThreads(config.numThreads)));
    const bool parallelVerify =
        workers.threadCount() > 1 && !faultPlanActive();
    report.verifyThreads =
        parallelVerify ? static_cast<int>(workers.threadCount()) : 1;

    // --- Phase 1: enumerate candidate pairs over the 1-wide ISA, up
    // to the work bound. Should the safety net fire first, it cuts
    // enumeration at three quarters of the budget (a complete run on
    // the shipped machines spends half to two thirds of its time
    // here), so the cut run still has time to shrink what it found.
    obs::Span enumSpan("synth/enumerate");
    constexpr double kEnumSafetyShare = 0.75;
    Deadline enumDeadline(config.timeoutSeconds > 0
                              ? config.timeoutSeconds * kEnumSafetyShare
                              : 0);
    EnumResult enumerated =
        enumerateTerms(isa, config.enumConfig, enumDeadline, &workers);
    report.hitDeadline = enumerated.hitDeadline;
    report.termsEnumerated = enumerated.termsEnumerated;
    report.candidatesConsidered = enumerated.candidates.size();
    report.enumerateSeconds = watch.elapsedSeconds();
    watch.reset();
    enumSpan.setValue(
        static_cast<std::int64_t>(report.candidatesConsidered));
    enumSpan.close();
    obs::counter("synth/candidates",
                 static_cast<std::int64_t>(report.candidatesConsidered));

    DspCostModel costModel(config.costParams);
    // The §3.2 compilation test: the sides differ in cost by more than
    // alpha, so the pair would become a compilation rule.
    auto isCompilationPair = [&](const CandidatePair &pair) {
        auto a = static_cast<std::int64_t>(costModel.exprCost(pair.a));
        auto b = static_cast<std::int64_t>(costModel.exprCost(pair.b));
        return std::llabs(a - b) > config.costParams.alpha;
    };
    auto isShortcut = [&](const CandidatePair &pair) {
        return config.keepShortcutCandidates && isCompilationPair(pair);
    };

    // Deduplicate candidate pairs and order them smallest-first (the
    // Ruler preference: small rules are more general and derive more).
    // Candidates are split into a lift pool (a Vec literal at a root),
    // a vector pool (either side mentions a vector operator) and a
    // scalar pool, processed round-robin so the scalar algebra cannot
    // starve the vectorization rules.
    std::vector<ScoredCandidate> liftPool;
    std::vector<ScoredCandidate> vectorPool;
    std::vector<ScoredCandidate> scalarPool;
    {
        std::unordered_set<std::size_t> seen;
        for (CandidatePair &pair : enumerated.candidates) {
            std::size_t key = pairKey(pair);
            if (!seen.insert(key).second) {
                ++report.duplicatePairs;
                continue;
            }
            // Smaller is better; more wildcards (more generality) is
            // better at equal size, so `(+ ?a 0) ~> ?a` is accepted
            // before its ground instances and prunes them.
            std::size_t size = pair.a.treeSize() + pair.b.treeSize();
            std::size_t generality =
                std::min<std::size_t>(pair.a.wildcardIds().size() +
                                          pair.b.wildcardIds().size(),
                                      15);
            std::size_t score = size * 16 - generality;
            bool liftPair = pair.a.root().op == Op::Vec ||
                            pair.b.root().op == Op::Vec;
            bool vectorPair = pair.a.containsVectorOp() ||
                              pair.b.containsVectorOp();
            auto &pool = liftPair ? liftPool
                         : vectorPair ? vectorPool
                                      : scalarPool;
            pool.push_back({std::move(pair), score, false});
        }
        auto byScore = [](const auto &x, const auto &y) {
            return x.score < y.score;
        };
        std::stable_sort(liftPool.begin(), liftPool.end(), byScore);
        std::stable_sort(vectorPool.begin(), vectorPool.end(), byScore);
        std::stable_sort(scalarPool.begin(), scalarPool.end(), byScore);
        // The rule cap is spent in pool order, and the lift pool holds
        // many small lift identities such as
        // (Vec (+ ?a ?a)) ~> (VecMul (Vec (+ 1 1)) (Vec ?a)) that sort
        // ahead of larger compilation rules like
        // (Vec (+ ?a (* ?b ?c))) ~> (VecMAC (Vec ?a) (Vec ?b) (Vec ?c)).
        // Compilation pairs therefore go first, each group still
        // smallest-first, so a cap keeps the rules that lower cost.
        // Only the lift pool: in the vector and scalar pools the same
        // order starves the expansion and optimization rules instead.
        std::stable_partition(
            liftPool.begin(), liftPool.end(),
            [&](const ScoredCandidate &c) {
                return isCompilationPair(c.pair);
            });
    }
    obs::counter("synth/duplicate-pairs",
                 static_cast<std::int64_t>(report.duplicatePairs));

    // --- Phase 2: shrink — accept small sound rules, prune the rest
    // by derivability under equality saturation.
    std::vector<CompiledRule> compiled;
    std::size_t liftCursor = 0;
    std::size_t vectorCursor = 0;
    std::size_t scalarCursor = 0;
    std::size_t acceptedSincePrune = 0;

    auto pruneDerivable = [&]() {
        if (compiled.empty() || acceptedSincePrune == 0)
            return;
        acceptedSincePrune = 0;
        obs::Span pruneSpan("synth/prune");
        std::size_t prunedBefore = report.prunedDerivable;
        // Prune a window of upcoming candidates only: the tail gets
        // its turn as the cursor approaches, and the saturation stays
        // small.
        constexpr std::size_t kPruneWindow = 1500;
        EGraph eg;
        std::vector<std::pair<ScoredCandidate *,
                              std::pair<EClassId, EClassId>>> ids;
        auto addWindow = [&](std::vector<ScoredCandidate> &pool,
                             std::size_t cursor) {
            for (std::size_t i = cursor;
                 i < pool.size() && ids.size() < 2 * kPruneWindow; ++i) {
                if (pool[i].dead || isShortcut(pool[i].pair))
                    continue;
                EClassId a = eg.addExpr(skolemize(pool[i].pair.a));
                EClassId b = eg.addExpr(skolemize(pool[i].pair.b));
                ids.emplace_back(&pool[i], std::make_pair(a, b));
            }
        };
        addWindow(liftPool, liftCursor);
        addWindow(vectorPool, vectorCursor);
        addWindow(scalarPool, scalarCursor);
        if (ids.empty())
            return;
        eg.rebuild();
        EqSatReport check = runEqSat(eg, compiled, config.derivLimits);
        if (check.stop == StopReason::TimeLimit)
            report.hitDeadline = true;
        for (auto &[cand, classes] : ids) {
            if (eg.same(classes.first, classes.second)) {
                cand->dead = true;
                ++report.prunedDerivable;
            }
        }
        std::size_t prunedHere = report.prunedDerivable - prunedBefore;
        pruneSpan.setValue(static_cast<std::int64_t>(prunedHere));
        // Shrink-loop visibility: window size and how many candidates
        // the derivability saturation left alive.
        obs::counter("synth/prune/window",
                     static_cast<std::int64_t>(ids.size()));
        obs::counter("synth/prune/survivors",
                     static_cast<std::int64_t>(ids.size() - prunedHere));
    };

    // Verdict tallies for the shrink phase's stats counters.
    std::size_t verdictCounts[3] = {0, 0, 0};

    // Speculatively verifies a window of upcoming live candidates on
    // the worker pool. verifyRule is pure, so an out-of-order verdict
    // is identical to the one the sequential engine would compute at
    // the cursor; decisions (accept/reject, naming, pruning) are still
    // committed strictly in cursor order by acceptOne, which is what
    // keeps the rule set byte-identical at any thread count. Verdicts
    // survive across prune rounds: a candidate killed after its
    // verdict landed is simply never consumed (speculation waste, not
    // a correctness issue).
    auto prefetchVerdicts = [&](std::vector<ScoredCandidate> &cands,
                                std::size_t from) {
        std::vector<ScoredCandidate *> batch;
        std::size_t want =
            std::max<std::size_t>(workers.threadCount() * 4, 16);
        for (std::size_t i = from;
             i < cands.size() && batch.size() < want; ++i) {
            if (!cands[i].dead && !cands[i].verified)
                batch.push_back(&cands[i]);
        }
        if (batch.empty())
            return;
        obs::Span batchSpan("synth/verify-batch",
                            static_cast<std::int64_t>(batch.size()));
        report.prefetchedVerifications += batch.size();
        workers.parallelFor(batch.size(), [&](std::size_t t) {
            ScoredCandidate &c = *batch[t];
            try {
                Rule forward{c.pair.a, c.pair.b, "", false};
                c.outcome.verdict = verifyRule(forward, config.verify);
            } catch (...) {
                c.outcome.error = std::current_exception();
            }
            c.verified = true;
        });
    };

    // Accepts the next live candidate of @p pool; returns false when
    // the pool is exhausted.
    auto acceptOne = [&](std::vector<ScoredCandidate> &pool,
                         std::size_t &cursor) {
        while (cursor < pool.size()) {
            if (deadline.expired()) {
                report.hitDeadline = true;
                return false;
            }
            ScoredCandidate &cand = pool[cursor];
            ++cursor;
            if (cand.dead)
                continue;

            Rule forward{cand.pair.a, cand.pair.b, "", false};
            Verdict verdict;
            if (parallelVerify) {
                if (!cand.verified)
                    prefetchVerdicts(pool, cursor - 1);
                ISARIA_ASSERT(cand.verified,
                              "prefetch missed the cursor candidate");
                if (cand.outcome.error)
                    std::rethrow_exception(cand.outcome.error);
                verdict = cand.outcome.verdict;
            } else {
                verdict = checkedVerify(forward, config.verify, report);
            }
            ++verdictCounts[static_cast<int>(verdict)];
            if (verdict == Verdict::Rejected) {
                ++report.rejectedUnsound;
                continue;
            }
            forward.verifiedExactly = (verdict == Verdict::Proved);

            Rule backward{cand.pair.b, cand.pair.a, "", false};
            backward.verifiedExactly = forward.verifiedExactly;

            bool any = false;
            for (Rule *rule : {&forward, &backward}) {
                if (!rule->wellFormed() ||
                    report.oneWideRules.size() >= config.maxRules) {
                    continue;
                }
                rule->name =
                    "syn1w-" + std::to_string(report.oneWideRules.size());
                if (report.oneWideRules.add(*rule)) {
                    compiled.emplace_back(*rule);
                    any = true;
                }
            }
            if (any) {
                ++acceptedSincePrune;
                return true;
            }
        }
        return false;
    };

    obs::Span shrinkSpan("synth/shrink");
    bool liftAlive = true;
    bool vectorAlive = true;
    bool scalarAlive = true;
    auto anyAlive = [&] { return liftAlive || vectorAlive || scalarAlive; };
    auto budgetLeft = [&] {
        return report.oneWideRules.size() < config.maxRules;
    };
    while (anyAlive() && budgetLeft()) {
        if (deadline.expired()) {
            report.hitDeadline = true;
            break;
        }
        pruneDerivable();
        for (int i = 0; i < config.batchSize && budgetLeft() && anyAlive();
             ++i) {
            if (liftAlive)
                liftAlive = acceptOne(liftPool, liftCursor);
            if (vectorAlive && budgetLeft())
                vectorAlive = acceptOne(vectorPool, vectorCursor);
            if (scalarAlive && budgetLeft())
                scalarAlive = acceptOne(scalarPool, scalarCursor);
        }
    }
    report.shrinkSeconds = watch.elapsedSeconds();
    watch.reset();
    shrinkSpan.setValue(
        static_cast<std::int64_t>(report.oneWideRules.size()));
    shrinkSpan.close();
    obs::counter("synth/verified/proved",
                 static_cast<std::int64_t>(
                     verdictCounts[static_cast<int>(Verdict::Proved)]));
    obs::counter("synth/verified/tested",
                 static_cast<std::int64_t>(
                     verdictCounts[static_cast<int>(Verdict::Tested)]));
    obs::counter(
        "synth/verified/rejected",
        static_cast<std::int64_t>(
            verdictCounts[static_cast<int>(Verdict::Rejected)]));
    obs::counter("synth/pruned-derivable",
                 static_cast<std::int64_t>(report.prunedDerivable));
    // Always-on verdict tallies (the trace counters above vanish with
    // the session; these feed the service-facing registry).
    static const obs::CounterHandle provedMetric =
        obs::metricCounter("synth/verified/proved");
    static const obs::CounterHandle testedMetric =
        obs::metricCounter("synth/verified/tested");
    static const obs::CounterHandle rejectedMetric =
        obs::metricCounter("synth/verified/rejected");
    obs::metricAdd(provedMetric,
                   verdictCounts[static_cast<int>(Verdict::Proved)]);
    obs::metricAdd(testedMetric,
                   verdictCounts[static_cast<int>(Verdict::Tested)]);
    obs::metricAdd(rejectedMetric,
                   verdictCounts[static_cast<int>(Verdict::Rejected)]);

    // --- Phase 3: generalize across lanes to the ISA width, then
    // re-verify every expanded rule (the paper's soundness backstop).
    // The re-verifications are independent, so the parallel engine
    // computes them in one fan-out and commits acceptance (and the
    // sequential syn-N naming) in rule order.
    obs::Span generalizeSpan("synth/generalize");
    int width = isa.vectorWidth();
    struct WideCandidate
    {
        Rule wide;
        bool needsVerify = false;
        VerifyOutcome outcome;
    };
    std::vector<WideCandidate> wides;
    wides.reserve(report.oneWideRules.size());
    for (const Rule &rule : report.oneWideRules.rules()) {
        WideCandidate wc;
        wc.wide = generalizeRule(rule, width);
        wc.needsVerify = !wc.wide.lhs.equalTree(rule.lhs) ||
                         !wc.wide.rhs.equalTree(rule.rhs);
        wides.push_back(std::move(wc));
    }
    if (parallelVerify) {
        std::vector<WideCandidate *> batch;
        for (WideCandidate &wc : wides)
            if (wc.needsVerify)
                batch.push_back(&wc);
        report.prefetchedVerifications += batch.size();
        workers.parallelFor(batch.size(), [&](std::size_t t) {
            try {
                batch[t]->outcome.verdict =
                    verifyRule(batch[t]->wide, config.verify);
            } catch (...) {
                batch[t]->outcome.error = std::current_exception();
            }
        });
    }
    for (WideCandidate &wc : wides) {
        if (wc.needsVerify) {
            Verdict verdict;
            if (parallelVerify) {
                if (wc.outcome.error)
                    std::rethrow_exception(wc.outcome.error);
                verdict = wc.outcome.verdict;
            } else {
                verdict = checkedVerify(wc.wide, config.verify, report);
            }
            if (verdict == Verdict::Rejected) {
                ++report.droppedAtGeneralization;
                continue;
            }
            wc.wide.verifiedExactly = (verdict == Verdict::Proved);
        }
        wc.wide.name = "syn-" + std::to_string(report.rules.size());
        report.rules.add(std::move(wc.wide));
    }
    report.generalizeSeconds = watch.elapsedSeconds();
    generalizeSpan.close();
    obs::counter("synth/rules",
                 static_cast<std::int64_t>(report.rules.size()));

    return report;
}

} // namespace isaria
