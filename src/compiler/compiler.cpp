#include "compiler/compiler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "egraph/extract.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "support/panic.h"
#include "support/timer.h"

namespace isaria
{

IsariaCompiler::IsariaCompiler(PhasedRules rules, CompilerConfig config)
    : rules_(std::move(rules)), config_(config),
      memo_(config.memoEntries)
{
    expansion_ = compileRules(rules_.ofPhase(Phase::Expansion));
    compilation_ = compileRules(rules_.ofPhase(Phase::Compilation));
    optimization_ = compileRules(rules_.ofPhase(Phase::Optimization));
    for (const PhasedRule &pr : rules_.all)
        everything_.emplace_back(pr.rule);
}

const char *
degradeLevelName(DegradeLevel level)
{
    switch (level) {
      case DegradeLevel::None: return "none";
      case DegradeLevel::BestSoFar: return "best-so-far";
      case DegradeLevel::RoundFallback: return "round-fallback";
      case DegradeLevel::ScalarFallback: return "scalar-fallback";
    }
    return "?";
}

namespace
{

/** Always-on registry sites of the compile loop (registered once per
 *  process; handles are cheap POD ids — see obs/metrics.h). */
struct CompileMetrics
{
    obs::HistogramHandle wallNs = obs::metricHistogram("compile/wall_ns");
    obs::HistogramHandle roundNs =
        obs::metricHistogram("compile/round_ns");
    obs::HistogramHandle extractNs =
        obs::metricHistogram("compile/extract_ns");
    obs::CounterHandle compiles = obs::metricCounter("compile/compiles");
    obs::CounterHandle memoHits = obs::metricCounter("compile/memo/hit");
    obs::CounterHandle memoMisses =
        obs::metricCounter("compile/memo/miss");
    obs::CounterHandle degraded = obs::metricCounter("compile/degraded");
    obs::CounterHandle faults =
        obs::metricCounter("compile/faults_injected");
    obs::GaugeHandle finalCost = obs::metricGauge("compile/final_cost");
};

CompileMetrics &
compileMetrics()
{
    static CompileMetrics metrics;
    return metrics;
}

/** Seconds elapsed on @p watch as integral nanoseconds. */
std::uint64_t
elapsedNs(const Stopwatch &watch)
{
    double seconds = watch.elapsedSeconds();
    return seconds <= 0 ? 0 : static_cast<std::uint64_t>(seconds * 1e9);
}

/** RAII latency-histogram sample: records the scope's wall time. */
struct ScopedLatency
{
    explicit ScopedLatency(obs::HistogramHandle handle) : handle(handle)
    {}
    ~ScopedLatency() { obs::metricRecord(handle, elapsedNs(watch)); }

    obs::HistogramHandle handle;
    Stopwatch watch;
};

/** Records one rung of the degradation ladder in stats and obs. */
void
noteDegrade(CompileStats &st, DegradeLevel level, std::string what)
{
    st.degradation = std::max(st.degradation, level);
    st.degradeEvents.push_back(std::move(what));
    obs::counter("compile/degraded", static_cast<std::int64_t>(level));
    obs::metricAdd(compileMetrics().degraded);
}

} // namespace

std::string
CompileStats::toString() const
{
    std::string out;
    char line[256];
    std::snprintf(line, sizeof line,
                  "compile: cost %" PRIu64 " -> %" PRIu64
                  " in %.3fs, %d rounds, %d eqsats, peak %zu nodes%s%s\n",
                  initialCost, finalCost, seconds, loopIterations,
                  eqsatCalls, peakNodes,
                  ranOutOfMemory ? " [hit node budget]" : "",
                  memoHit ? " [memo hit]" : "");
    out += line;
    // EqSatReport::toString carries the stop reason and flags step
    // budget truncation, so a false "saturated" reads as such here.
    for (const RoundStats &r : rounds) {
        if (r.ranExpansion) {
            std::snprintf(line, sizeof line,
                          "  round %d: expansion %s\n", r.round,
                          r.expansion.toString().c_str());
            out += line;
        }
        std::snprintf(line, sizeof line,
                      "  round %d: compilation %s -> cost %" PRIu64
                      "\n",
                      r.round, r.compilation.toString().c_str(),
                      r.extractedCost);
        out += line;
    }
    if (ranOptimization) {
        std::snprintf(line, sizeof line, "  optimize: %s\n",
                      optimization.toString().c_str());
        out += line;
    }
    if (degradation != DegradeLevel::None) {
        std::snprintf(line, sizeof line,
                      "  degraded: %s (%d fault%s injected)\n",
                      degradeLevelName(degradation), faultsInjected,
                      faultsInjected == 1 ? "" : "s");
        out += line;
        for (const std::string &event : degradeEvents)
            out += "    ! " + event + "\n";
    }
    return out;
}

RecExpr
IsariaCompiler::compile(const RecExpr &program, CompileStats *stats) const
{
    return compile(program, config_, stats, /*memoWrite=*/true);
}

RecExpr
IsariaCompiler::compile(const RecExpr &program,
                        const CompilerConfig &config, CompileStats *stats,
                        bool memoWrite) const
{
    Stopwatch watch;
    obs::Span compileSpan("compile");
    CompileStats local;
    CompileStats &st = stats ? *stats : local;
    st = CompileStats{};

    const CompileMetrics &cm = compileMetrics();
    auto finishMetrics = [&] {
        obs::metricAdd(cm.compiles);
        obs::metricRecord(cm.wallNs, elapsedNs(watch));
        obs::metricSet(cm.finalCost,
                       static_cast<std::int64_t>(st.finalCost));
        obs::metricAdd(cm.faults,
                       static_cast<std::uint64_t>(st.faultsInjected));
    };

    const DspCostModel &cost = config.costModel;
    st.initialCost = cost.exprCost(program);

    // Memo fast path: a verbatim repeat of a compiled program costs
    // one tree-hash lookup instead of the whole Fig. 3 loop.
    if (auto hit = memo_.lookup(program)) {
        st.memoHit = true;
        st.finalCost = hit->cost;
        st.seconds = watch.elapsedSeconds();
        obs::counter("compile/memo/hit", 1);
        obs::metricAdd(cm.memoHits);
        finishMetrics();
        return std::move(hit->compiled);
    }
    if (memo_.enabled()) {
        obs::counter("compile/memo/miss", 1);
        obs::metricAdd(cm.memoMisses);
    }

    // The ladder's last rung: whatever escapes the per-round guards
    // of compileImpl — including failures outside any round — still
    // yields a runnable program: the scalar input itself.
    try {
        RecExpr out = compileImpl(program, config, st);
        st.seconds = watch.elapsedSeconds();
        // Only clean compiles are worth memoizing: a degraded result
        // (budget cancellation, injected fault) — or one compiled
        // under a request's shrunk budgets (memoWrite false) — should
        // be retried fresh next time rather than pinned in the cache.
        if (memoWrite && st.degradation == DegradeLevel::None)
            memo_.store(program, {out, st.finalCost});
        finishMetrics();
        return out;
    } catch (const std::exception &e) {
        noteDegrade(st, DegradeLevel::ScalarFallback,
                    std::string("pipeline failed (") + e.what() +
                        "); emitting the scalar input program");
        st.finalCost = st.initialCost;
        st.seconds = watch.elapsedSeconds();
        finishMetrics();
        return program;
    }
}

RecExpr
IsariaCompiler::compileImpl(const RecExpr &program,
                            const CompilerConfig &config,
                            CompileStats &st) const
{
    const DspCostModel &cost = config.costModel;
    const CancellationToken *token = config.compilationLimits.cancel;

    auto note = [&](const char *phase, int round,
                    const EqSatReport &report) {
        ++st.eqsatCalls;
        st.peakNodes = std::max(st.peakNodes, report.nodes);
        st.ranOutOfMemory |= report.stop == StopReason::NodeLimit ||
                             report.stop == StopReason::MemLimit;
        if (report.faultInjected)
            ++st.faultsInjected;
        // NodeLimit/TimeLimit/IterLimit are the routine budget exits
        // the paper's scheduler is built around; only the new
        // resource/cancellation/fault stops count as degradation.
        if (report.stop == StopReason::MemLimit ||
            report.stop == StopReason::Cancelled) {
            noteDegrade(st, DegradeLevel::BestSoFar,
                        "round " + std::to_string(round) + ": " + phase +
                            " stopped early (" +
                            stopReasonName(report.stop) +
                            (report.faultInjected ? ", fault injected"
                                                  : "") +
                            "); extracting best-so-far");
        }
        st.reports.push_back(report);
    };

    // One extraction engine for the whole compile: its dependency
    // index is keyed on (graphId, generation), so rounds that extract
    // repeatedly from an unchanged graph (and the no-pruning ablation,
    // which keeps one graph across rounds) skip the index rebuild.
    Extractor extractor;
    auto extractChecked = [&](const EGraph &eg, EClassId root) {
        obs::Span extractSpan("compile/extract",
                              static_cast<std::int64_t>(eg.numNodes()));
        ScopedLatency extractLatency(compileMetrics().extractNs);
        // Extraction is interruptible (satellite of the caching PR):
        // a healthy round's extraction polls the caller's token, so a
        // cancel that lands mid-extraction stops it within a few
        // hundred class visits. If the token has *already* fired —
        // this extraction is the best-so-far degradation path — it
        // runs under a fresh grace deadline instead, so degradation
        // stays bounded without being self-defeating.
        bool alreadyCancelled = token && token->cancelled();
        Deadline grace(alreadyCancelled
                           ? config.cancelledExtractGraceSeconds
                           : 0);
        ExecControl control(alreadyCancelled ? &grace : nullptr,
                            alreadyCancelled ? nullptr : token);
        auto got = extractor.extract(eg, root, cost, &control);
        if (!got.has_value()) {
            if (control.interrupted())
                ISARIA_FATAL("extraction interrupted (cancelled or "
                             "out of grace budget)");
            ISARIA_FATAL("extraction found no program");
        }
        return std::move(*got);
    };

    RecExpr current = program;

    if (!config.phasing) {
        // Strawman (Section 2.2): a single equality saturation over
        // the entire synthesized rule set. Its one round degrades
        // straight to the input program on failure.
        obs::Span roundSpan("compile/round", 1);
        ScopedLatency roundLatency(compileMetrics().roundNs);
        RoundStats round;
        round.round = 1;
        try {
            EGraph eg;
            EClassId root = eg.addExpr(current);
            round.compilation =
                runEqSat(eg, everything_, config.compilationLimits);
            note("compilation", 1, round.compilation);
            Extracted best = extractChecked(eg, root);
            round.extractedCost = best.cost;
            st.rounds.push_back(round);
            st.finalCost = best.cost;
            obs::counter("compile/cost",
                         static_cast<std::int64_t>(best.cost));
            return std::move(best.expr);
        } catch (const std::exception &e) {
            noteDegrade(st, DegradeLevel::RoundFallback,
                        std::string("strawman round failed (") + e.what() +
                            "); keeping the input program");
            st.rounds.push_back(round);
            st.finalCost = st.initialCost;
            return current;
        }
    }

    std::uint64_t oldCost = st.initialCost;

    // The Fig. 3 loop. With pruning each round restarts from a fresh
    // e-graph seeded with the previous extraction; the ablation keeps
    // one e-graph across rounds.
    EGraph keptGraph;
    EClassId keptRoot = 0;
    if (!config.pruning)
        keptRoot = keptGraph.addExpr(current);

    for (int iter = 0; iter < config.maxLoopIterations; ++iter) {
        ++st.loopIterations;
        // Rounds are numbered from 1 in stats and trace output.
        obs::Span roundSpan("compile/round", iter + 1);
        ScopedLatency roundLatency(compileMetrics().roundNs);
        RoundStats round;
        round.round = iter + 1;
        round.ranExpansion = true;
        std::uint64_t newCost = 0;

        // Per-round guard: a phase that fails outright (rather than
        // stopping on a budget) falls back to the previous round's
        // program — `current` is only updated after a successful
        // extraction, so it is always the best completed round.
        try {
            EGraph freshGraph;
            EGraph &eg = config.pruning ? freshGraph : keptGraph;
            EClassId root =
                config.pruning ? eg.addExpr(current) : keptRoot;

            round.expansion =
                runEqSat(eg, expansion_, config.expansionLimits);
            note("expansion", round.round, round.expansion);
            round.compilation =
                runEqSat(eg, compilation_, config.compilationLimits);
            note("compilation", round.round, round.compilation);

            Extracted best = extractChecked(eg, root);
            round.extractedCost = best.cost;
            st.rounds.push_back(round);
            obs::counter("compile/cost",
                         static_cast<std::int64_t>(best.cost));
            newCost = best.cost;
            current = std::move(best.expr);
        } catch (const std::exception &e) {
            noteDegrade(st, DegradeLevel::RoundFallback,
                        "round " + std::to_string(round.round) +
                            " failed (" + e.what() +
                            "); keeping the previous round's program");
            st.rounds.push_back(round);
            break;
        }

        // A cancelled round still extracted best-so-far above; now
        // stop iterating instead of burning more rounds.
        if (token && token->cancelled())
            break;
        if (newCost == oldCost)
            break;
        oldCost = newCost;
    }

    // Final phase: optimize the chosen vectorization. Failure keeps
    // the unoptimized (still valid) program.
    try {
        obs::Span optSpan("compile/optimize");
        EGraph eg;
        EClassId root = eg.addExpr(current);
        st.optimization = runEqSat(eg, optimization_, config.optLimits);
        st.ranOptimization = true;
        note("optimize", st.loopIterations, st.optimization);
        Extracted best = extractChecked(eg, root);
        st.finalCost = best.cost;
        current = std::move(best.expr);
    } catch (const std::exception &e) {
        noteDegrade(st, DegradeLevel::RoundFallback,
                    std::string("optimization phase failed (") + e.what() +
                        "); keeping the unoptimized program");
        st.finalCost = oldCost;
    }

    return current;
}

} // namespace isaria
