#ifndef ISARIA_COMPILER_COMPILER_H
#define ISARIA_COMPILER_COMPILER_H

/**
 * @file
 * The Isaria compile-time scheduler: the Compile algorithm of Fig. 3.
 *
 * An IsariaCompiler is what the offline pipeline emits: a phased rule
 * system plus the cost model. Compilation loops
 *
 *   fresh e-graph <- program
 *   saturate expansion rules; saturate compilation rules
 *   extract the cheapest program; prune (restart from it)
 *
 * until the extracted cost stops improving, then runs one saturation
 * of optimization rules. Both pruning and phasing can be disabled to
 * reproduce the Section 5.2 ablations.
 */

#include <algorithm>
#include <vector>

#include "compiler/memo.h"
#include "egraph/runner.h"
#include "phase/phase.h"

namespace isaria
{

/** Knobs of the compile-time scheduler. */
struct CompilerConfig
{
    DspCostModel costModel;
    /**
     * Per-phase EqSat budgets (the paper applies a 180 s timeout per
     * call; defaults here are laptop-scale). Expansion is kept
     * shallow — it only needs to surface permutations and padding —
     * while compilation runs deep enough for the per-op compile rules
     * to recurse to the leaves of each lane.
     */
    EqSatLimits expansionLimits = {.maxNodes = 30'000,
                                   .maxIters = 2,
                                   .timeoutSeconds = 0.8,
                                   .maxMatchesPerRule = 20'000,
                                   .maxMatchesPerClass = 24};
    EqSatLimits compilationLimits = {.maxNodes = 60'000,
                                     .maxIters = 10,
                                     .timeoutSeconds = 2.0,
                                     .maxMatchesPerRule = 8'000,
                                     .maxMatchesPerClass = 32};
    /** Budgets for the final optimization saturation. */
    EqSatLimits optLimits = {.maxNodes = 100'000,
                             .maxIters = 5,
                             .timeoutSeconds = 1.5,
                             .maxMatchesPerRule = 30'000,
                             .maxMatchesPerClass = 48};
    /** Safety cap on the improve loop of Fig. 3. */
    int maxLoopIterations = 10;
    /** Greedy pruning between loop iterations (Section 3.3). */
    bool pruning = true;
    /** Phase-scheduled saturation; false = one saturation over the
     *  whole rule set (the Section 2.2 / 5.2 strawman). */
    bool phasing = true;
    /**
     * Wall-clock grace budget for the best-so-far extraction of a
     * round whose saturation was cancelled. The cancellation token has
     * already fired at that point, so the extraction — which *is* the
     * degradation path — runs under this fresh deadline instead of the
     * token; a healthy round's extraction polls the token itself.
     */
    double cancelledExtractGraceSeconds = 2.0;
    /**
     * Entries retained by the in-memory compile memo (kernel term ->
     * compiled program); 0 disables memoization. Each IsariaCompiler
     * owns its memo, so hits are always consistent with this
     * compiler's rule set and budgets. Repeated compiles of the same
     * kernel (bench sweeps, --asm/--optimize re-lowering) become a
     * hash lookup.
     */
    std::size_t memoEntries = 0;

    /**
     * Sets the e-matching thread count of every per-phase EqSat
     * budget (the --eqsat-threads knob; see EqSatLimits::numThreads).
     */
    CompilerConfig &
    withEqSatThreads(int threads)
    {
        expansionLimits.numThreads = threads;
        compilationLimits.numThreads = threads;
        optLimits.numThreads = threads;
        return *this;
    }

    /**
     * Caps the accounted e-graph footprint of every saturation at
     * @p bytes (the --mem-mb knob; 0 = unlimited). A saturation that
     * hits the ceiling stops with StopReason::MemLimit and the round
     * still extracts the best program found so far.
     */
    CompilerConfig &
    withMemLimitBytes(std::size_t bytes)
    {
        expansionLimits.maxBytes = bytes;
        compilationLimits.maxBytes = bytes;
        optLimits.maxBytes = bytes;
        return *this;
    }

    /**
     * Threads a caller-owned cancellation token through every
     * saturation and the Fig. 3 loop itself: once the token fires,
     * in-flight search work is interrupted within a few thousand
     * e-matching steps and compile() returns the best program
     * extracted so far (degradation recorded in CompileStats).
     */
    CompilerConfig &
    withCancellation(const CancellationToken *token)
    {
        expansionLimits.cancel = token;
        compilationLimits.cancel = token;
        optLimits.cancel = token;
        return *this;
    }

    /**
     * A copy of this config with every eqsat budget shrunk by
     * @p scale in (0, 1] — the serve tier's soft-pressure band.
     * Wall-clock timeouts, node ceilings, and the improve-loop cap
     * all scale down, and the backoff scheduler is forced on with a
     * proportionally smaller match budget so explosive rules are
     * throttled first. The request still runs the full degradation
     * ladder; it just reaches "good enough" sooner and returns the
     * pool slot to the queue.
     */
    CompilerConfig
    scaledForPressure(double scale) const
    {
        CompilerConfig out = *this;
        if (scale <= 0 || scale >= 1)
            return out;
        auto shrink = [&](EqSatLimits &limits) {
            limits.timeoutSeconds *= scale;
            limits.maxNodes = std::max<std::size_t>(
                1'000, static_cast<std::size_t>(
                           static_cast<double>(limits.maxNodes) * scale));
            limits.maxIters =
                std::max(1, static_cast<int>(limits.maxIters * scale));
            limits.scheduler = EqSatScheduler::Backoff;
            limits.schedMatchLimit = std::max<std::size_t>(
                64, static_cast<std::size_t>(
                        static_cast<double>(limits.schedMatchLimit) *
                        scale));
        };
        shrink(out.expansionLimits);
        shrink(out.compilationLimits);
        shrink(out.optLimits);
        out.maxLoopIterations =
            std::max(1, static_cast<int>(out.maxLoopIterations * scale));
        return out;
    }

    /**
     * Sets the rule-application scheduling policy of every per-phase
     * EqSat budget (the --eqsat-scheduler knob; see EqSatScheduler).
     * @p matchLimit / @p banLength tune the backoff thresholds; pass 0
     * to keep a limit's default.
     */
    CompilerConfig &
    withScheduler(EqSatScheduler scheduler, std::size_t matchLimit = 0,
                  std::size_t banLength = 0)
    {
        for (EqSatLimits *limits :
             {&expansionLimits, &compilationLimits, &optLimits}) {
            limits->scheduler = scheduler;
            if (matchLimit)
                limits->schedMatchLimit = matchLimit;
            if (banLength)
                limits->schedBanLength = banLength;
        }
        return *this;
    }
};

/**
 * How far compile() had to walk down the graceful-degradation ladder
 * (ordered: each level subsumes the ones before it).
 */
enum class DegradeLevel
{
    /** Clean run: every phase completed within budget. */
    None,
    /** A saturation stopped on a resource budget, cancellation, or an
     *  injected fault, and the round extracted best-so-far. */
    BestSoFar,
    /** A phase failed outright; compile() fell back to the previous
     *  round's program. */
    RoundFallback,
    /** The whole pipeline failed; compile() returned its input (the
     *  scalar program) unchanged — direct scalar lowering. */
    ScalarFallback,
};

/** Human-readable degradation-level name. */
const char *degradeLevelName(DegradeLevel level);

/**
 * Sub-stats for one round of the Fig. 3 improve loop: the full
 * reports of both saturations (stop reason, node/class counts at the
 * stop, phase timings) plus the cost of the extraction that closed
 * the round. The strawman (no-phases) path records its single
 * saturation as one round's `compilation`.
 */
struct RoundStats
{
    int round = 0;
    EqSatReport expansion;
    EqSatReport compilation;
    /** The round ran an expansion saturation (false for strawman). */
    bool ranExpansion = false;
    std::uint64_t extractedCost = 0;
};

/** Observability for the experiments. */
struct CompileStats
{
    std::uint64_t initialCost = 0;
    std::uint64_t finalCost = 0;
    int loopIterations = 0;
    int eqsatCalls = 0;
    double seconds = 0;
    std::size_t peakNodes = 0;
    /** A saturation hit its node or byte budget — the "ran out of
     *  memory" condition of the paper's ablations. */
    bool ranOutOfMemory = false;
    /** Deepest degradation rung this compile hit (None = clean). */
    DegradeLevel degradation = DegradeLevel::None;
    /** One human-readable entry per degradation event, in order
     *  ("round 2: compilation stopped early (mem-limit), extracted
     *  best-so-far"). */
    std::vector<std::string> degradeEvents;
    /** Saturations whose stop was forced by an injected fault. */
    int faultsInjected = 0;
    /** The result came from the compiler's in-memory memo; no eqsat
     *  work ran (see CompilerConfig::memoEntries). */
    bool memoHit = false;
    /** Every saturation report, in call order (kept for existing
     *  consumers; `rounds` is the structured view). */
    std::vector<EqSatReport> reports;
    /** Per-round sub-stats of the improve loop. */
    std::vector<RoundStats> rounds;
    /** Report of the final optimization saturation, if it ran. */
    EqSatReport optimization;
    bool ranOptimization = false;

    /** Per-round breakdown (what `--stats` prints per compile). */
    std::string toString() const;
};

/** A generated vectorizing compiler for one ISA instance. */
class IsariaCompiler
{
  public:
    IsariaCompiler(PhasedRules rules, CompilerConfig config);

    /**
     * Vectorizes @p program (Fig. 3). Never fails to return a
     * runnable program: a round that exhausts a budget (or is
     * cancelled, or absorbs an injected fault) extracts the best
     * program found so far, a phase that fails outright falls back to
     * the previous round's program, and a whole-pipeline failure
     * returns @p program itself (direct scalar lowering). The path
     * taken is recorded in CompileStats::degradation/degradeEvents.
     */
    RecExpr compile(const RecExpr &program,
                    CompileStats *stats = nullptr) const;

    /**
     * Compiles @p program under @p config instead of the construction
     * config — the serve tier's per-request plumbing: one shared
     * compiler (rules, warm memo) serves many requests, each with its
     * own budgets, cancellation token, byte ceiling, and scheduler
     * knobs. The memo is always consulted (a hit compiled under fuller
     * budgets is at least as good as what this request would build),
     * but only stored into when @p memoWrite is set *and* the compile
     * was clean — a soft-pressure or deadline-cut result must not pin
     * a worse program for future full-budget requests.
     */
    RecExpr compile(const RecExpr &program, const CompilerConfig &config,
                    CompileStats *stats, bool memoWrite) const;

    const PhasedRules &rules() const { return rules_; }
    const CompilerConfig &config() const { return config_; }

    /** Hit/miss counters of the in-memory compile memo. */
    CompileMemo::Stats memoStats() const { return memo_.stats(); }

  private:
    /** The fallible Fig. 3 body; compile() wraps it in the ladder's
     *  last rung (scalar fallback on any escaped failure). */
    RecExpr compileImpl(const RecExpr &program,
                        const CompilerConfig &config,
                        CompileStats &st) const;

    PhasedRules rules_;
    CompilerConfig config_;
    /** Program -> compiled-program memo (thread-safe; see
     *  CompilerConfig::memoEntries). */
    mutable CompileMemo memo_;
    std::vector<CompiledRule> expansion_;
    std::vector<CompiledRule> compilation_;
    std::vector<CompiledRule> optimization_;
    std::vector<CompiledRule> everything_;
};

} // namespace isaria

#endif // ISARIA_COMPILER_COMPILER_H
