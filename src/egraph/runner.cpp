#include "egraph/runner.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "support/fault.h"
#include "support/thread_pool.h"

namespace isaria
{

namespace
{

/**
 * Candidate classes per search task. Fixed (rather than derived from
 * the thread count) so the task decomposition — and with it the
 * slicing of each rule's step budget — is identical no matter how
 * many workers execute it.
 */
constexpr std::size_t kShardSize = 256;

/** One (rule, candidate-range) unit of search work. */
struct SearchShard
{
    std::size_t rule;
    std::size_t begin;
    std::size_t end;
    /** This shard's slice of the rule's step budget. */
    std::size_t steps;
};

/** Backoff state of one rule (see EqSatScheduler::Backoff). */
struct RuleBackoff
{
    /** First iteration index the rule may search again. */
    std::size_t bannedUntil = 0;
    /** Prior bans; budget and ban length double per offense. */
    unsigned offenses = 0;
};

/** @p value << @p shift, saturating instead of overflowing. */
std::size_t
saturatingShift(std::size_t value, unsigned shift)
{
    if (shift >= 48 || value > (SIZE_MAX >> shift))
        return SIZE_MAX;
    return value << shift;
}

/** Always-on registry sites of the saturation loop (see
 *  obs/metrics.h; registered once per process). */
struct EqSatMetrics
{
    obs::HistogramHandle iterNs = obs::metricHistogram("eqsat/iter_ns");
    obs::HistogramHandle searchNs =
        obs::metricHistogram("eqsat/search_ns");
    obs::HistogramHandle applyNs =
        obs::metricHistogram("eqsat/apply_ns");
    obs::HistogramHandle runNs = obs::metricHistogram("eqsat/run_ns");
    obs::CounterHandle runs = obs::metricCounter("eqsat/runs");
    obs::CounterHandle iters = obs::metricCounter("eqsat/iters");
    obs::CounterHandle schedBans =
        obs::metricCounter("eqsat/sched/bans");
    obs::CounterHandle schedSkipped =
        obs::metricCounter("eqsat/sched/skipped");
    obs::CounterHandle faults = obs::metricCounter("eqsat/faults");
    obs::CounterHandle stepBudgetExhausted =
        obs::metricCounter("eqsat/step_budget_exhausted");
    obs::GaugeHandle peakNodes = obs::metricGauge("egraph/peak_nodes");
    obs::GaugeHandle bytesUsed = obs::metricGauge("egraph/bytes_used");
    obs::GaugeHandle arenaHighWater =
        obs::metricGauge("egraph/arena/high_water_bytes");
    obs::GaugeHandle arenaChunks =
        obs::metricGauge("egraph/arena/chunks");
    obs::GaugeHandle arenaOccupancy =
        obs::metricGauge("egraph/arena/occupancy_pct");
    /** One counter per StopReason ("eqsat/stop/<name>"). */
    std::array<obs::CounterHandle, kAllStopReasons.size()> stops;

    EqSatMetrics()
    {
        for (std::size_t i = 0; i < kAllStopReasons.size(); ++i) {
            std::string name = std::string("eqsat/stop/") +
                               stopReasonName(kAllStopReasons[i]);
            stops[i] = obs::metricCounter(name.c_str());
        }
    }
};

const EqSatMetrics &
eqSatMetrics()
{
    static EqSatMetrics metrics;
    return metrics;
}

/** The stop counter for @p reason. */
obs::CounterHandle
stopCounter(StopReason reason)
{
    for (std::size_t i = 0; i < kAllStopReasons.size(); ++i)
        if (kAllStopReasons[i] == reason)
            return eqSatMetrics().stops[i];
    return eqSatMetrics().stops[0];
}

} // namespace

const char *
eqSatSchedulerName(EqSatScheduler scheduler)
{
    switch (scheduler) {
      case EqSatScheduler::Simple: return "simple";
      case EqSatScheduler::Backoff: return "backoff";
    }
    return "?";
}

std::optional<EqSatScheduler>
eqSatSchedulerFromName(const char *name)
{
    for (EqSatScheduler s :
         {EqSatScheduler::Simple, EqSatScheduler::Backoff}) {
        if (std::strcmp(eqSatSchedulerName(s), name) == 0)
            return s;
    }
    return std::nullopt;
}

int
resolveEqSatThreads(int requested)
{
    if (requested >= 1)
        return requested;
    return static_cast<int>(ThreadPool::defaultThreads());
}

const char *
stopReasonName(StopReason reason)
{
    // Audited against kAllStopReasons: every enumerator has a unique
    // human-readable name, and the wall-clock stop ("time-limit") is
    // distinct from the iteration/step-budget stop ("iter-limit") so
    // stats output can tell a slow rule set from a deep one.
    switch (reason) {
      case StopReason::Saturated: return "saturated";
      case StopReason::NodeLimit: return "node-limit";
      case StopReason::IterLimit: return "iter-limit";
      case StopReason::TimeLimit: return "time-limit";
      case StopReason::MemLimit: return "mem-limit";
      case StopReason::Cancelled: return "cancelled";
    }
    return "?";
}

std::optional<StopReason>
stopReasonFromName(const char *name)
{
    for (StopReason reason : kAllStopReasons) {
        if (std::strcmp(stopReasonName(reason), name) == 0)
            return reason;
    }
    return std::nullopt;
}

std::string
EqSatReport::toString() const
{
    std::string sched;
    if (schedBans > 0) {
        sched = " (sched: " + std::to_string(schedBans) + " bans, " +
                std::to_string(schedSkippedSearches) +
                " searches skipped, " +
                std::to_string(schedThrottledMatches) +
                " matches throttled)";
    }
    return std::string(stopReasonName(stop)) + " after " +
           std::to_string(iterations) + " iters, " +
           std::to_string(nodes) + " nodes, " + std::to_string(classes) +
           " classes" +
           (stepBudgetExhausted ? " (step budget exhausted)" : "") +
           (faultInjected ? " (fault injected)" : "") + sched;
}

EqSatReport
runEqSat(EGraph &egraph, const std::vector<CompiledRule> &rules,
         const EqSatLimits &limits)
{
    Stopwatch watch;
    Deadline deadline(limits.timeoutSeconds);
    EqSatReport report;
    // An armed fault plan forces the sequential path (the same
    // fallback rule synthesis uses): fault ordinals are consumed per
    // shard, and with workers racing, which shard a "fire on the Nth
    // probe" ordinal lands on — and therefore which iteration's
    // matches and scheduler ban ordinals survive — would depend on
    // the schedule. Sequential search keeps injected-fault runs (and
    // the backoff scheduler's ban bookkeeping) byte-identical at any
    // requested thread count.
    report.threads = faultPlanActive()
                         ? 1
                         : resolveEqSatThreads(limits.numThreads);
    ThreadPool pool(static_cast<unsigned>(report.threads));
    report.ruleApplied.assign(rules.size(), 0);
    report.ruleBannedIters.assign(rules.size(), 0);
    std::vector<RuleBackoff> backoff(
        limits.scheduler == EqSatScheduler::Backoff ? rules.size() : 0);

    // Tracing setup. Everything here is observation only — a traced
    // run produces byte-identical results to an untraced one — and
    // with tracing disabled the cost is one null check per site.
    obs::TraceSession *trace = obs::TraceSession::active();
    obs::Span runSpan("eqsat/run",
                      static_cast<std::int64_t>(rules.size()));
    std::uint32_t shardSpanName = 0;
    std::vector<std::uint32_t> ruleMatchName, ruleStepName,
        ruleApplyName;
    if (trace) {
        shardSpanName = obs::internName("eqsat/shard");
        ruleMatchName.reserve(rules.size());
        ruleStepName.reserve(rules.size());
        ruleApplyName.reserve(rules.size());
        for (const CompiledRule &rule : rules) {
            ruleMatchName.push_back(
                obs::internName("rule/" + rule.name() + "/matches"));
            ruleStepName.push_back(
                obs::internName("rule/" + rule.name() + "/steps"));
            ruleApplyName.push_back(
                obs::internName("rule/" + rule.name() + "/applied"));
        }
    }

    ExecControl ctl(&deadline, limits.cancel);

    // Any fault injected inside the loop (e-graph allocation, shard
    // search, rebuild) abandons the current iteration: the catch at
    // the bottom restores the graph's invariants and reports a
    // Cancelled stop, so the caller can still extract best-so-far.
    try {

    egraph.rebuild();

    for (int iter = 0; iter < limits.maxIters; ++iter) {
        if (ctl.cancelled()) {
            report.stop = StopReason::Cancelled;
            break;
        }
        if (deadline.expired()) {
            report.stop = StopReason::TimeLimit;
            break;
        }
        if (egraph.numNodes() >= limits.maxNodes) {
            report.stop = StopReason::NodeLimit;
            break;
        }
        if (limits.maxBytes &&
            egraph.bytesUsed() >= limits.maxBytes) {
            report.stop = StopReason::MemLimit;
            break;
        }
        obs::Span iterSpan("eqsat/iter", iter);
        obs::ScopedHistogramTimer iterTimer(eqSatMetrics().iterNs);

        // Search phase: gather matches for every rule against the
        // frozen e-graph, so application order cannot bias results.
        // The e-graph's incrementally-maintained op index gives each
        // rule only the classes containing its root operator
        // (wildcard-rooted rules still visit everything). Rules the
        // backoff scheduler has banned are skipped outright — that
        // skip, not the post-search throttle, is the scheduler's
        // perf win — and the ban state is itself deterministic, so
        // the shard decomposition stays thread-count independent.
        Stopwatch searchWatch;
        std::vector<EClassId> allClasses = egraph.canonicalClasses();
        std::vector<OpClassesView> candidates(rules.size());
        std::vector<std::uint8_t> banned(rules.size(), 0);
        bool anySchedActivity = false;
        for (std::size_t r = 0; r < rules.size(); ++r) {
            if (!backoff.empty() &&
                static_cast<std::size_t>(iter) < backoff[r].bannedUntil) {
                banned[r] = 1;
                anySchedActivity = true;
                ++report.schedSkippedSearches;
                ++report.ruleBannedIters[r];
                continue;
            }
            Op rootOp = rules[r].lhs().pattern().root().op;
            candidates[r] = rootOp == Op::Wildcard
                                ? OpClassesView::unchecked(allClasses)
                                : egraph.classesWithOp(rootOp);
        }

        // Cut each rule's candidate list into fixed-size shards and
        // slice its step budget across them (front shards take the
        // remainder), so every shard is self-contained and the result
        // is independent of scheduling.
        std::vector<SearchShard> shards;
        for (std::size_t r = 0; r < rules.size(); ++r) {
            if (banned[r])
                continue;
            std::size_t n = candidates[r].size();
            if (n == 0)
                continue;
            std::size_t numShards = (n + kShardSize - 1) / kShardSize;
            std::size_t base = limits.maxSearchStepsPerRule / numShards;
            std::size_t extra = limits.maxSearchStepsPerRule % numShards;
            for (std::size_t s = 0; s < numShards; ++s) {
                shards.push_back(
                    SearchShard{r, s * kShardSize,
                                std::min(n, (s + 1) * kShardSize),
                                base + (s < extra ? 1 : 0)});
            }
        }

        std::vector<std::vector<PatternMatch>> shardMatches(
            shards.size());
        // Step budget consumed per shard, recorded only when tracing
        // (summed into the per-rule step counters after the merge).
        std::vector<std::size_t> shardSteps(trace ? shards.size() : 0);
        obs::Span searchSpan("eqsat/search",
                             static_cast<std::int64_t>(shards.size()));
        // Deadline, cancellation, or a shard fault: all three abandon
        // the phase's matches, so the e-graph after the stop is the
        // last completed iteration's — deterministic for any thread
        // count (the wall clock being the one nondeterministic
        // trigger, as before).
        std::atomic<bool> interrupted{false};
        std::atomic<bool> faulted{false};
        // An OR across shards: deterministic for any schedule.
        std::atomic<bool> stepsExhausted{false};
        pool.parallelFor(shards.size(), [&](std::size_t t) {
            if (interrupted.load(std::memory_order_relaxed))
                return;
            // The shard is the unit of search work, so it is the
            // search phase's fault-injection site. Thread-pool tasks
            // must not throw: a fired fault flags the run instead.
            if (faultShouldFire(FaultSite::ShardSearch)) {
                faulted.store(true, std::memory_order_relaxed);
                interrupted.store(true, std::memory_order_relaxed);
                return;
            }
            const SearchShard &shard = shards[t];
            // Worker threads emit straight into their own lock-free
            // rings; the span records which rule this shard served.
            obs::Span shardSpan(shardSpanName, trace,
                                static_cast<std::int64_t>(shard.rule));
            const CompiledPattern &lhs = rules[shard.rule].lhs();
            const OpClassesView &classes = candidates[shard.rule];
            std::vector<PatternMatch> &out = shardMatches[t];
            std::size_t steps = shard.steps;
            std::size_t scanned = 0;
            for (std::size_t i = shard.begin; i < shard.end; ++i) {
                if (out.size() >= limits.maxMatchesPerRule ||
                    steps == 0) {
                    break;
                }
                std::size_t remaining =
                    limits.maxMatchesPerRule - out.size();
                std::size_t cap =
                    out.size() +
                    std::min(limits.maxMatchesPerClass, remaining);
                // ctl is polled inside searchClass too (every ~2k
                // VM steps), so even one enormous class cannot
                // overshoot the wall-clock budget unboundedly.
                lhs.searchClass(egraph, classes[i], out, cap, &steps,
                                &ctl);
                if ((++scanned & 15) == 0 && ctl.interrupted()) {
                    interrupted.store(true, std::memory_order_relaxed);
                    break;
                }
            }
            if (steps == 0)
                stepsExhausted.store(true, std::memory_order_relaxed);
            if (trace)
                shardSteps[t] = shard.steps - steps;
        });
        double searchSeconds = searchWatch.elapsedSeconds();
        report.searchSeconds += searchSeconds;
        obs::metricRecord(eqSatMetrics().searchNs,
                          static_cast<std::uint64_t>(searchSeconds *
                                                     1e9));
        report.stepBudgetExhausted |=
            stepsExhausted.load(std::memory_order_relaxed);
        searchSpan.close();
        if (faulted.load(std::memory_order_relaxed)) {
            report.faultInjected = true;
            report.stop = StopReason::Cancelled;
            break;
        }
        if (interrupted.load(std::memory_order_relaxed) ||
            ctl.interrupted()) {
            report.stop = ctl.cancelled() ? StopReason::Cancelled
                                          : StopReason::TimeLimit;
            break;
        }

        // Deterministic merge: rule-major, shard order, truncated at
        // the per-rule cap — byte-identical for any thread count.
        std::vector<std::vector<PatternMatch>> allMatches(rules.size());
        for (std::size_t t = 0; t < shards.size(); ++t) {
            std::vector<PatternMatch> &dst = allMatches[shards[t].rule];
            for (PatternMatch &m : shardMatches[t]) {
                if (dst.size() >= limits.maxMatchesPerRule)
                    break;
                dst.push_back(std::move(m));
            }
        }

        // Backoff throttle, applied to the merged (already
        // thread-count-independent) match lists: a rule whose match
        // volume exceeds its doubling budget is banned for a doubling
        // number of iterations and contributes nothing this round.
        if (!backoff.empty()) {
            std::size_t bansBefore = report.schedBans;
            for (std::size_t r = 0; r < rules.size(); ++r) {
                if (banned[r])
                    continue;
                std::size_t budget = saturatingShift(
                    limits.schedMatchLimit, backoff[r].offenses);
                if (allMatches[r].size() <= budget)
                    continue;
                backoff[r].bannedUntil =
                    static_cast<std::size_t>(iter) + 1 +
                    saturatingShift(limits.schedBanLength,
                                    backoff[r].offenses);
                ++backoff[r].offenses;
                ++report.schedBans;
                report.schedThrottledMatches += allMatches[r].size();
                allMatches[r].clear();
                anySchedActivity = true;
            }
            if (report.schedBans > bansBefore) {
                obs::counter("eqsat/sched/banned",
                             static_cast<std::int64_t>(report.schedBans));
            }
            if (report.schedSkippedSearches > 0) {
                obs::counter("eqsat/sched/skipped",
                             static_cast<std::int64_t>(
                                 report.schedSkippedSearches));
            }
        }
        if (trace) {
            std::vector<std::size_t> ruleSteps(rules.size());
            for (std::size_t t = 0; t < shards.size(); ++t)
                ruleSteps[shards[t].rule] += shardSteps[t];
            for (std::size_t r = 0; r < rules.size(); ++r) {
                trace->recordCounter(
                    ruleMatchName[r],
                    static_cast<std::int64_t>(allMatches[r].size()));
                trace->recordCounter(
                    ruleStepName[r],
                    static_cast<std::int64_t>(ruleSteps[r]));
            }
        }

        // Apply phase: round-robin across rules so that when the node
        // budget cuts application short, every rule got a fair share
        // rather than only the rules that happened to come first.
        Stopwatch applyWatch;
        obs::Span applySpan("eqsat/apply");
        std::vector<std::size_t> ruleApplied(rules.size());
        bool changed = false;
        // Set when a stop source cut the apply phase short: the matches
        // left unapplied may still change the graph, so an unchanged
        // prefix is no evidence of saturation.
        bool applyCut = false;
        std::size_t nodesBefore = egraph.numNodes();
        bool pending = true;
        std::size_t applied = 0;
        for (std::size_t index = 0; pending; ++index) {
            pending = false;
            for (std::size_t r = 0; r < rules.size(); ++r) {
                if (index >= allMatches[r].size())
                    continue;
                pending = true;
                changed |= rules[r].apply(egraph, allMatches[r][index]);
                ++ruleApplied[r];
                // Poll all stop sources every 256 applications so a
                // long apply phase cannot overshoot its budgets; a
                // partial apply is kept (it is sound — merges only
                // add equalities) and rebuilt below.
                if ((++applied & 255) == 0 &&
                    (ctl.interrupted() ||
                     egraph.numNodes() >= limits.maxNodes ||
                     (limits.maxBytes &&
                      egraph.bytesUsed() >= limits.maxBytes))) {
                    pending = false;
                    applyCut = true;
                    break;
                }
            }
            if (egraph.numNodes() >= limits.maxNodes)
                break;
        }
        applySpan.setValue(static_cast<std::int64_t>(applied));
        applySpan.close();
        {
            obs::Span rebuildSpan("eqsat/rebuild");
            // The rebuild fault site fires *before* the real rebuild
            // runs; the recovery path below then restores congruence,
            // so a "failed rebuild" still leaves a consistent graph.
            faultPoint(FaultSite::Rebuild);
            egraph.rebuild();
        }
        double applySeconds = applyWatch.elapsedSeconds();
        report.applySeconds += applySeconds;
        obs::metricRecord(eqSatMetrics().applyNs,
                          static_cast<std::uint64_t>(applySeconds *
                                                     1e9));
        report.iterations = iter + 1;
        changed |= egraph.numNodes() != nodesBefore;
        for (std::size_t r = 0; r < rules.size(); ++r)
            report.ruleApplied[r] += ruleApplied[r];
        if (trace) {
            for (std::size_t r = 0; r < rules.size(); ++r) {
                trace->recordCounter(
                    ruleApplyName[r],
                    static_cast<std::int64_t>(ruleApplied[r]));
            }
            // The e-graph growth curve, one sample per iteration.
            trace->recordCounter(
                obs::internName("egraph/nodes"),
                static_cast<std::int64_t>(egraph.numNodes()));
            trace->recordCounter(
                obs::internName("egraph/classes"),
                static_cast<std::int64_t>(egraph.numClasses()));
            // And the memory curve beneath it: accounted bytes plus
            // the arena's chunk footprint (how much of bytesUsed is
            // bump-allocated rather than heap churn).
            EGraphArenaStats arena = egraph.arenaStats();
            trace->recordCounter(
                obs::internName("egraph/arena/bytes"),
                static_cast<std::int64_t>(arena.bytesAllocated));
            trace->recordCounter(
                obs::internName("egraph/arena/chunks"),
                static_cast<std::int64_t>(arena.numChunks));
        }

        // Always-on registry sampling, one probe per iteration: the
        // memory-telemetry gauges (bytesUsed, arena high water / pool
        // occupancy) and the high-water node count. The sampling
        // point is itself a fault-injection site ("egraph-metrics"):
        // a telemetry-path failure must degrade the run like any
        // other mid-iteration fault, not abort the compile — the
        // catch below absorbs it.
        {
            faultPoint(FaultSite::EGraphMetrics);
            const EqSatMetrics &em = eqSatMetrics();
            obs::metricMax(em.peakNodes, static_cast<std::int64_t>(
                                             egraph.numNodes()));
            obs::metricSet(em.bytesUsed, static_cast<std::int64_t>(
                                             egraph.bytesUsed()));
            EGraphArenaStats arena = egraph.arenaStats();
            obs::metricMax(em.arenaHighWater,
                           static_cast<std::int64_t>(
                               arena.bytesReserved));
            obs::metricMax(em.arenaChunks, static_cast<std::int64_t>(
                                               arena.numChunks));
            if (arena.bytesReserved) {
                obs::metricSet(em.arenaOccupancy,
                               static_cast<std::int64_t>(
                                   arena.bytesAllocated * 100 /
                                   arena.bytesReserved));
            }
        }

        if (!changed && !applyCut) {
            // An unchanged iteration is only saturation if the
            // scheduler held nothing back. Otherwise lift every ban
            // and run one more full iteration: if *that* changes
            // nothing, the graph is genuinely saturated (egg's
            // can_stop semantics).
            if (anySchedActivity) {
                for (RuleBackoff &b : backoff)
                    b.bannedUntil = 0;
                report.stop = StopReason::IterLimit;
                continue;
            }
            report.stop = StopReason::Saturated;
            break;
        }
        report.stop = StopReason::IterLimit;
    }

    } catch (const FaultInjected &) {
        // Injected failure mid-iteration (allocation or rebuild).
        // Restore congruence/hashcons invariants — this recovery
        // rebuild has no fault site, so it always runs for real —
        // and report a cancellation-class stop; the caller extracts
        // best-so-far from the repaired graph.
        report.faultInjected = true;
        report.stop = StopReason::Cancelled;
        obs::instant("eqsat/fault-recovered");
        egraph.rebuild();
    }

    report.nodes = egraph.numNodes();
    report.classes = egraph.numClasses();
    report.bytes = egraph.bytesUsed();
    report.seconds = watch.elapsedSeconds();

    // End-of-run registry totals (always on; see obs/metrics.h).
    const EqSatMetrics &em = eqSatMetrics();
    obs::metricAdd(em.runs);
    obs::metricAdd(em.iters,
                   static_cast<std::uint64_t>(report.iterations));
    obs::metricAdd(stopCounter(report.stop));
    obs::metricRecord(em.runNs, static_cast<std::uint64_t>(
                                    report.seconds * 1e9));
    if (report.schedBans)
        obs::metricAdd(em.schedBans, report.schedBans);
    if (report.schedSkippedSearches)
        obs::metricAdd(em.schedSkipped, report.schedSkippedSearches);
    if (report.faultInjected)
        obs::metricAdd(em.faults);
    if (report.stepBudgetExhausted)
        obs::metricAdd(em.stepBudgetExhausted);
    return report;
}

} // namespace isaria
