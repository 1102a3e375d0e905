#ifndef ISARIA_EGRAPH_RUNNER_H
#define ISARIA_EGRAPH_RUNNER_H

/**
 * @file
 * The equality-saturation loop (the EqSat procedure of Fig. 3).
 *
 * Each iteration searches every rule against the current e-graph,
 * applies all matches, and rebuilds. The loop stops on saturation (no
 * change), or on a node, iteration, or wall-clock budget — the budgets
 * are how Isaria's compile-time scheduler and the paper's "ran out of
 * memory" ablations are realized deterministically.
 *
 * The search phase is read-only over the frozen e-graph, so it fans
 * out over a work-stealing thread pool: every rule's candidate class
 * list (from the e-graph's incremental op index) is cut into
 * fixed-size shards, each (rule, shard) task searches into a private
 * match buffer with a pre-sliced share of the rule's step budget, and
 * buffers are concatenated in rule-then-shard order afterwards. The
 * task decomposition depends only on the e-graph and the limits —
 * never on the thread count — so any thread count produces bit-
 * identical matches (and therefore identical e-graphs) to the
 * sequential engine; threads only change wall-clock time. The single
 * nondeterministic exit is the wall-clock timeout, exactly as in the
 * sequential engine.
 */

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "egraph/rewrite.h"
#include "support/cancel.h"
#include "support/timer.h"

namespace isaria
{

/**
 * Rule-application scheduling policy for the saturation loop.
 *
 * Simple applies every rule every iteration (the original behavior).
 * Backoff is egg's BackoffScheduler: each rule gets a per-iteration
 * match budget; a rule that exceeds it is banned for a number of
 * iterations, and both the budget and the ban length double on each
 * repeat offense. Explosive rules (associativity/commutativity) stop
 * starving the cheap directed rules, which is what keeps production
 * saturation engines tractable. Ban decisions are computed from the
 * deterministically merged per-rule match counts, after the parallel
 * shard search — so scheduling is byte-identical at any thread count.
 */
enum class EqSatScheduler
{
    Simple,
    Backoff,
};

/** Scheduler name ("simple"/"backoff"). */
const char *eqSatSchedulerName(EqSatScheduler scheduler);

/** Inverse of eqSatSchedulerName; nullopt for unknown names. */
std::optional<EqSatScheduler> eqSatSchedulerFromName(const char *name);

/** Budgets for one equality-saturation run. */
struct EqSatLimits
{
    /** Stop when the e-graph holds this many e-nodes ("memory"). */
    std::size_t maxNodes = 1'000'000;
    /**
     * Stop when the e-graph's accounted heap footprint reaches this
     * many bytes (EGraph::bytesUsed; 0 = unlimited). The byte-level
     * companion to maxNodes: wide terms make node counts a poor
     * memory proxy, and this ceiling is what keeps one pathological
     * kernel from taking the process down.
     */
    std::size_t maxBytes = 0;
    /** Maximum saturation iterations. */
    int maxIters = 30;
    /** Wall-clock budget in seconds (<= 0 for unlimited). */
    double timeoutSeconds = 0;
    /** Cap on matches gathered per rule per iteration. */
    std::size_t maxMatchesPerRule = 200'000;
    /** Cap on matches rooted in any single e-class per rule, so
     *  combinatorial patterns cannot starve later classes. */
    std::size_t maxMatchesPerClass = 256;
    /** Backtracking-step budget per rule per iteration; bounds
     *  pathological e-matching independent of match counts. */
    std::size_t maxSearchStepsPerRule = 1'000'000;
    /**
     * Worker threads for the search phase. 0 = auto: the
     * ISARIA_EQSAT_THREADS environment variable if set, otherwise
     * hardware concurrency. 1 = sequential (no threads spawned).
     * Results are identical for every value; see the file comment.
     */
    int numThreads = 0;
    /**
     * Optional caller-owned cancellation token. The runner and its
     * search shards poll it (together with the wall-clock deadline)
     * every few thousand e-matching steps, so cancellation interrupts
     * in-flight work instead of being observed only between
     * iterations. A cancelled run stops with StopReason::Cancelled on
     * the last completed iteration's e-graph — still a valid graph to
     * extract a best-so-far program from.
     */
    const CancellationToken *cancel = nullptr;
    /** Rule-application scheduling policy (--eqsat-scheduler). */
    EqSatScheduler scheduler = EqSatScheduler::Simple;
    /**
     * Backoff only: per-iteration match budget of a rule before it is
     * banned (--eqsat-match-limit). Doubles per repeat offense.
     */
    std::size_t schedMatchLimit = 1'000;
    /**
     * Backoff only: iterations a first ban lasts
     * (--eqsat-ban-length). Doubles per repeat offense.
     */
    std::size_t schedBanLength = 5;
};

/** Thread count actually used for @p requested (see EqSatLimits). */
int resolveEqSatThreads(int requested);

/** Why a saturation run stopped. */
enum class StopReason
{
    Saturated,
    NodeLimit,
    IterLimit,
    TimeLimit,
    /** The byte ceiling (EqSatLimits::maxBytes) was reached. */
    MemLimit,
    /** The caller's CancellationToken fired, or an injected fault
     *  forced the run to abandon its current iteration. */
    Cancelled,
};

/** Every StopReason, for exhaustive iteration in stats and tests.
 *  Keep in sync with the enum (pinned by ObsTest.StopReasonNames). */
inline constexpr std::array<StopReason, 6> kAllStopReasons = {
    StopReason::Saturated,
    StopReason::NodeLimit,
    StopReason::IterLimit,
    StopReason::TimeLimit,
    StopReason::MemLimit,
    StopReason::Cancelled,
};

/** Outcome summary of one saturation run. */
struct EqSatReport
{
    StopReason stop = StopReason::Saturated;
    int iterations = 0;
    std::size_t nodes = 0;
    std::size_t classes = 0;
    /** Accounted e-graph footprint at the stop (EGraph::bytesUsed). */
    std::size_t bytes = 0;
    double seconds = 0;
    /** Wall-clock seconds inside the (parallel) search phase. */
    double searchSeconds = 0;
    /** Wall-clock seconds inside apply + rebuild. */
    double applySeconds = 0;
    /** Search threads used. */
    int threads = 1;
    /**
     * True when some search shard exhausted its per-rule step budget
     * (maxSearchStepsPerRule). Distinguishes a genuinely complete
     * "saturated" / "iter-limit" stop from one whose search was
     * silently truncated — and keeps truncation separate from
     * TimeLimit, which is about the wall clock.
     */
    bool stepBudgetExhausted = false;
    /**
     * An armed fault fired during this run (shard search, rebuild, or
     * e-graph allocation). The run still returns a consistent e-graph
     * — the interrupted iteration's work is abandoned — and stops
     * with StopReason::Cancelled.
     */
    bool faultInjected = false;
    /**
     * Backoff-scheduler activity (all zero under the simple
     * scheduler): ban events, rule-iterations whose search was
     * skipped while banned, and matches discarded at ban time. Fully
     * deterministic — identical at any thread count.
     */
    std::size_t schedBans = 0;
    std::size_t schedSkippedSearches = 0;
    std::size_t schedThrottledMatches = 0;
    /**
     * Per-rule totals over the whole run, indexed like the rule
     * vector passed to runEqSat: matches applied, matches the search
     * kept (after the per-rule cap, before the backoff throttle
     * discards a banned rule's), search steps spent, and iterations
     * banned. What benchmarks read to see which rules cost search
     * time and which the scheduler throttled (and that thread counts
     * changed nothing). Not part of the CompileReport JSON.
     */
    std::vector<std::size_t> ruleApplied;
    std::vector<std::size_t> ruleMatches;
    std::vector<std::size_t> ruleSearchSteps;
    std::vector<std::size_t> ruleBannedIters;

    std::string toString() const;
};

/** Human-readable stop reason. */
const char *stopReasonName(StopReason reason);

/** Inverse of stopReasonName (round-trips every enumerator). */
std::optional<StopReason> stopReasonFromName(const char *name);

/** Runs equality saturation with @p rules over @p egraph. */
EqSatReport runEqSat(EGraph &egraph, const std::vector<CompiledRule> &rules,
                     const EqSatLimits &limits);

} // namespace isaria

#endif // ISARIA_EGRAPH_RUNNER_H
