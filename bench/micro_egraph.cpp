// Micro-benchmarks (google-benchmark) for the substrate the paper's
// compile times are made of: e-graph insertion, congruence rebuild,
// e-matching, equality saturation, and extraction. These are not a
// paper figure; they exist to track the performance of the substrate
// the figure harnesses depend on.
//
// The saturation-loop benchmarks sweep search-thread counts and
// ruleset sizes (the regime where per-rule search cost dominates once
// lane-wise rules are generalized to full vector width). Unless a
// --benchmark_out flag is given, results are also written as
// machine-readable JSON to BENCH_egraph.json in the working
// directory, so successive PRs accumulate a perf trajectory.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "common.h"

#include <map>
#include <utility>

#include "baseline/diospyros.h"
#include "baseline/harness.h"
#include "compiler/compiler.h"
#include "egraph/extract.h"
#include "egraph/runner.h"
#include "frontend/kernels.h"
#include "isa/cost_model.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "term/sexpr.h"

namespace isaria
{
namespace
{

RecExpr
convProgram(int n, int k)
{
    return liftKernel(make2DConv(n, n, k, k), 4);
}

/** The Diospyros hand rules replicated @p scale times. */
std::vector<CompiledRule>
scaledRules(int scale)
{
    std::vector<Rule> base = diospyrosHandRules().rules();
    std::vector<Rule> all;
    all.reserve(base.size() * static_cast<std::size_t>(scale));
    for (int copy = 0; copy < scale; ++copy)
        all.insert(all.end(), base.begin(), base.end());
    return compileRules(all);
}

void
BM_EGraphAddExpr(benchmark::State &state)
{
    RecExpr program = convProgram(static_cast<int>(state.range(0)), 3);
    for (auto _ : state) {
        EGraph eg;
        benchmark::DoNotOptimize(eg.addExpr(program));
    }
    state.counters["nodes"] = static_cast<double>(program.size());
}
BENCHMARK(BM_EGraphAddExpr)->Arg(4)->Arg(8)->Arg(10);

void
BM_CongruenceRebuild(benchmark::State &state)
{
    RecExpr program = convProgram(8, 3);
    for (auto _ : state) {
        state.PauseTiming();
        EGraph eg;
        eg.addExpr(program);
        // Merge a handful of leaf classes to make work.
        EClassId a = eg.addExpr(parseSexpr("(Get I 0)"));
        EClassId b = eg.addExpr(parseSexpr("(Get I 1)"));
        EClassId c = eg.addExpr(parseSexpr("(Get F 0)"));
        state.ResumeTiming();
        eg.merge(a, b);
        eg.merge(b, c);
        eg.rebuild();
        benchmark::DoNotOptimize(eg.numNodes());
    }
}
BENCHMARK(BM_CongruenceRebuild);

void
BM_EMatchCommutativity(benchmark::State &state)
{
    EGraph eg;
    eg.addExpr(convProgram(static_cast<int>(state.range(0)), 3));
    eg.rebuild();
    CompiledPattern pattern(parseSexpr("(+ ?a ?b)"));
    for (auto _ : state) {
        auto matches = pattern.search(eg, 100000);
        benchmark::DoNotOptimize(matches.size());
    }
}
BENCHMARK(BM_EMatchCommutativity)->Arg(4)->Arg(8);

/**
 * The saturation hot loop, swept over (threads, ruleset scale). The
 * ruleset is the Diospyros hand rules replicated scale x; threads is
 * EqSatLimits::numThreads. This is the acceptance workload for the
 * parallel e-matching engine: matches, e-graphs, and extractions are
 * identical across the threads axis — only wall-clock may change.
 */
void
BM_EqSatSaturation(benchmark::State &state)
{
    int threads = static_cast<int>(state.range(0));
    int scale = static_cast<int>(state.range(1));
    auto rules = scaledRules(scale);
    RecExpr program = convProgram(4, 3);
    EqSatLimits limits;
    limits.maxIters = 2;
    limits.maxNodes = 60'000;
    limits.numThreads = threads;
    double searchSeconds = 0;
    std::size_t nodes = 0;
    for (auto _ : state) {
        EGraph eg;
        eg.addExpr(program);
        EqSatReport report = runEqSat(eg, rules, limits);
        benchmark::DoNotOptimize(report.nodes);
        searchSeconds += report.searchSeconds;
        nodes = report.nodes;
    }
    state.counters["threads"] = threads;
    state.counters["rules"] = static_cast<double>(rules.size());
    state.counters["egraph_nodes"] = static_cast<double>(nodes);
    state.counters["search_s_per_iter"] = benchmark::Counter(
        searchSeconds, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_EqSatSaturation)
    ->ArgsProduct({{1, 2, 4, 8}, {1, 2, 4}})
    ->ArgNames({"threads", "ruleset"})
    ->Unit(benchmark::kMillisecond);

/**
 * An e-graph closed under associativity + commutativity of a chain of
 * @p leaves additions: the NP-complete AC-matching regime of §2.2.
 * Classes hold many e-nodes, so deep patterns backtrack heavily.
 * Built once and shared — saturating it is expensive.
 */
const EGraph &
acSaturatedGraph(int leaves)
{
    static EGraph graph = [leaves] {
        RecExpr chain;
        NodeId acc = chain.addSymbol("v0");
        for (int i = 1; i < leaves; ++i) {
            NodeId leaf = chain.addSymbol("v" + std::to_string(i));
            acc = chain.add(Op::Add, {acc, leaf});
        }
        EGraph eg;
        eg.addExpr(chain);
        auto rules = compileRules({
            parseRule("(+ ?a ?b) ~> (+ ?b ?a)"),
            parseRule("(+ (+ ?a ?b) ?c) ~> (+ ?a (+ ?b ?c))"),
        });
        EqSatLimits warmup;
        warmup.maxIters = 60;
        warmup.maxNodes = 500'000;
        warmup.numThreads = 1;
        runEqSat(eg, rules, warmup);
        return eg;
    }();
    return graph;
}

/**
 * The largest micro workload, and the search-dominated one: one
 * saturation pass of many deep / non-linear probe patterns over the
 * AC-closed e-graph. Most probe attempts fail after partial matches
 * and every successful application is a no-op merge (the graph is
 * already closed), so nearly all wall-clock is the read-only parallel
 * search phase — the "hundreds of generalized rules, few of which
 * fire" regime the paper's compile loop lives in, and the workload
 * where the thread sweep shows the engine's multicore scaling.
 */
void
BM_EqSatSearchHeavy(benchmark::State &state)
{
    int threads = static_cast<int>(state.range(0));
    std::vector<Rule> probes = {
        parseRule("(+ (+ ?a ?b) (+ ?b ?a)) ~> (+ (+ ?b ?a) (+ ?a ?b))"),
        parseRule("(+ ?a (+ ?b (+ ?c (+ ?d ?e)))) ~> "
                  "(+ (+ (+ (+ ?a ?b) ?c) ?d) ?e)"),
        parseRule("(+ (+ ?a ?a) ?b) ~> (+ ?b (+ ?a ?a))"),
        parseRule("(+ (+ (+ ?a ?b) ?c) (+ ?a (+ ?b ?c))) ~> "
                  "(+ (+ ?c (+ ?b ?a)) (+ (+ ?c ?b) ?a))"),
    };
    std::vector<Rule> all;
    for (int copy = 0; copy < 16; ++copy)
        all.insert(all.end(), probes.begin(), probes.end());
    auto rules = compileRules(all);

    const EGraph &seed = acSaturatedGraph(9);
    EqSatLimits limits;
    limits.maxIters = 1;
    limits.maxNodes = 1'000'000;
    limits.maxMatchesPerRule = 2'000;
    limits.maxMatchesPerClass = 8;
    limits.maxSearchStepsPerRule = 4'000'000;
    limits.numThreads = threads;
    double searchSeconds = 0;
    double totalSeconds = 0;
    for (auto _ : state) {
        EGraph eg = seed;
        EqSatReport report = runEqSat(eg, rules, limits);
        benchmark::DoNotOptimize(report.nodes);
        searchSeconds += report.searchSeconds;
        totalSeconds += report.seconds;
    }
    state.counters["threads"] = threads;
    state.counters["rules"] = static_cast<double>(rules.size());
    state.counters["egraph_nodes"] =
        static_cast<double>(seed.numNodes());
    state.counters["search_share"] =
        totalSeconds > 0 ? searchSeconds / totalSeconds : 0;
}
BENCHMARK(BM_EqSatSearchHeavy)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

void
BM_EqSatDiospyrosRules(benchmark::State &state)
{
    auto rules = scaledRules(1);
    RecExpr program = convProgram(3, 2);
    EqSatLimits limits;
    limits.maxIters = 2;
    limits.maxNodes = 50'000;
    for (auto _ : state) {
        EGraph eg;
        eg.addExpr(program);
        auto report = runEqSat(eg, rules, limits);
        benchmark::DoNotOptimize(report.nodes);
    }
}
BENCHMARK(BM_EqSatDiospyrosRules)->Unit(benchmark::kMillisecond);

void
BM_Extract(benchmark::State &state)
{
    auto rules = scaledRules(1);
    RecExpr program = convProgram(4, 2);
    EGraph eg;
    EClassId root = eg.addExpr(program);
    EqSatLimits limits;
    limits.maxIters = 3;
    runEqSat(eg, rules, limits);
    DspCostModel cost;
    for (auto _ : state) {
        auto best = extractBest(eg, root, cost);
        benchmark::DoNotOptimize(best->cost);
    }
    state.counters["egraph_nodes"] = static_cast<double>(eg.numNodes());
}
BENCHMARK(BM_Extract)->Unit(benchmark::kMillisecond);

/**
 * A saturated conv e-graph grown to roughly @p maxNodes e-nodes,
 * built once per size and shared across benchmark repetitions
 * (saturating to 10^5 nodes is far more expensive than extracting).
 */
const std::pair<EGraph, EClassId> &
extractionGraph(std::size_t maxNodes)
{
    static std::map<std::size_t, std::pair<EGraph, EClassId>> cache;
    auto it = cache.find(maxNodes);
    if (it != cache.end())
        return it->second;
    std::vector<Rule> all = diospyrosHandRules().rules();
    all.push_back(parseRule("(+ ?a ?b) ~> (+ ?b ?a)"));
    all.push_back(parseRule("(+ (+ ?a ?b) ?c) ~> (+ ?a (+ ?b ?c))"));
    auto rules = compileRules(all);
    EGraph eg;
    EClassId root = eg.addExpr(convProgram(8, 3));
    EqSatLimits limits;
    limits.maxIters = 12;
    limits.maxNodes = maxNodes;
    runEqSat(eg, rules, limits);
    auto [pos, inserted] =
        cache.emplace(maxNodes, std::make_pair(std::move(eg), root));
    return pos->second;
}

/**
 * The tentpole acceptance workload: cold extraction (index build +
 * cost propagation + term rebuild) on saturated e-graphs, worklist
 * engine vs the reference global-sweep fixpoint, at sizes up to
 * ~10^5 nodes. engine 0 = worklist, 1 = fixpoint.
 */
void
BM_ExtractScaling(benchmark::State &state)
{
    ExtractorKind kind = state.range(0) == 0 ? ExtractorKind::Worklist
                                             : ExtractorKind::Fixpoint;
    const auto &[eg, root] =
        extractionGraph(static_cast<std::size_t>(state.range(1)));
    DspCostModel cost;
    for (auto _ : state) {
        Extractor extractor(kind); // fresh: cold index every time
        auto best = extractor.extract(eg, root, cost);
        benchmark::DoNotOptimize(best->cost);
    }
    state.counters["egraph_nodes"] = static_cast<double>(eg.numNodes());
    state.counters["engine"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ExtractScaling)
    ->ArgsProduct({{0, 1}, {10'000, 60'000, 120'000}})
    ->ArgNames({"engine", "nodes"})
    ->Unit(benchmark::kMillisecond);

/**
 * Warm extraction: a reused Extractor on an unchanged graph hits the
 * (graphId, generation) cache and skips the dependency-index build —
 * the Fig. 3 loop's repeated extract-per-round case.
 */
void
BM_ExtractWarmIndex(benchmark::State &state)
{
    const auto &[eg, root] =
        extractionGraph(static_cast<std::size_t>(state.range(0)));
    DspCostModel cost;
    Extractor extractor;
    benchmark::DoNotOptimize(
        extractor.extract(eg, root, cost)->cost); // build the index
    for (auto _ : state) {
        auto best = extractor.extract(eg, root, cost);
        benchmark::DoNotOptimize(best->cost);
    }
    state.counters["egraph_nodes"] = static_cast<double>(eg.numNodes());
}
BENCHMARK(BM_ExtractWarmIndex)
    ->Arg(60'000)
    ->Arg(120'000)
    ->ArgName("nodes")
    ->Unit(benchmark::kMillisecond);

/**
 * Cost model for the scrambled-dependency workload: Mul is ruinously
 * expensive, so every chain class's converged best flows through the
 * cheap Add chain instead of its local Mul alternative.
 */
class ChainCost : public CostFn
{
  public:
    std::uint64_t
    nodeCost(Op op, std::int64_t,
             std::span<const std::uint64_t> childCosts) const override
    {
        std::uint64_t c = op == Op::Mul ? 1'000'000 : 1;
        for (std::uint64_t child : childCosts)
            c = satAddCost(c, child);
        return c;
    }
};

/**
 * A graph whose merge history reverses dependency order: a depth-long
 * chain where each class's cheap node points at a class with a
 * *higher* canonical id (rewrites that introduce cheaper subterms
 * late produce exactly this shape — the new nodes join early classes,
 * but their children keep late ids). The ascending-id global sweep
 * then propagates one chain level per pass, paying depth full-graph
 * sweeps, while the worklist engine relaxes each edge once.
 */
static std::pair<EGraph, EClassId> &
scrambledGraph(std::size_t depth, std::size_t totalNodes)
{
    static std::map<std::pair<std::size_t, std::size_t>,
                    std::pair<EGraph, EClassId>>
        cache;
    auto key = std::make_pair(depth, totalNodes);
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;

    EGraph eg;
    auto constant = [&](std::int64_t v) {
        ENode n;
        n.op = Op::Const;
        n.payload = v;
        return eg.add(std::move(n));
    };

    // Anchors first (small, ascending ids); each starts as an
    // expensive Mul so it resolves immediately but badly.
    EClassId shared = constant(-1);
    std::vector<EClassId> anchor(depth);
    for (std::size_t i = 0; i < depth; ++i) {
        EClassId c = constant(static_cast<std::int64_t>(i));
        ENode mul;
        mul.op = Op::Mul;
        mul.children.push_back(shared);
        mul.children.push_back(c);
        anchor[i] = eg.add(std::move(mul));
    }
    // Cheap terminal for the deepest anchor, then the chain nodes —
    // created last (largest ids) and merged into the early anchors,
    // so class i's best path runs through class i+1's higher id.
    EClassId cheap = constant(static_cast<std::int64_t>(depth));
    eg.merge(anchor[depth - 1], cheap);
    for (std::size_t i = 0; i + 1 < depth; ++i) {
        ENode add;
        add.op = Op::Add;
        add.children.push_back(anchor[i + 1]);
        add.children.push_back(cheap);
        eg.merge(anchor[i], eg.add(std::move(add)));
    }
    // Pad with resolved leaves: every global sweep still re-evaluates
    // them, the worklist engine visits them exactly once.
    for (std::int64_t v = static_cast<std::int64_t>(depth) + 1;
         eg.numNodes() < totalNodes; ++v)
        constant(v);
    eg.rebuild();

    auto [pos, inserted] =
        cache.emplace(key, std::make_pair(std::move(eg), anchor[0]));
    return pos->second;
}

/**
 * Extraction on merge-scrambled dependency order — the case the
 * worklist engine exists for. engine 0 = worklist, 1 = fixpoint.
 */
void
BM_ExtractScrambled(benchmark::State &state)
{
    ExtractorKind kind = state.range(0) == 0 ? ExtractorKind::Worklist
                                             : ExtractorKind::Fixpoint;
    const auto &[eg, root] =
        scrambledGraph(128, static_cast<std::size_t>(state.range(1)));
    ChainCost cost;
    for (auto _ : state) {
        Extractor extractor(kind); // fresh: cold index every time
        auto best = extractor.extract(eg, root, cost);
        benchmark::DoNotOptimize(best->cost);
    }
    state.counters["egraph_nodes"] = static_cast<double>(eg.numNodes());
    state.counters["engine"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ExtractScrambled)
    ->ArgsProduct({{0, 1}, {60'000, 120'000}})
    ->ArgNames({"engine", "nodes"})
    ->Unit(benchmark::kMillisecond);

/**
 * Scheduler on/off sweep on an explosive ruleset: the Diospyros hand
 * rules plus raw associativity/commutativity, the mix that drowns the
 * directed lowering rules in AC matches. With the backoff scheduler
 * the AC rules get banned after exceeding their match budget and the
 * saturation spends its iterations on the rules that make progress.
 * scheduler 0 = simple, 1 = backoff.
 */
void
BM_EqSatSchedulerSweep(benchmark::State &state)
{
    std::vector<Rule> all = diospyrosHandRules().rules();
    all.push_back(parseRule("(+ ?a ?b) ~> (+ ?b ?a)"));
    all.push_back(parseRule("(+ (+ ?a ?b) ?c) ~> (+ ?a (+ ?b ?c))"));
    all.push_back(parseRule("(* ?a ?b) ~> (* ?b ?a)"));
    auto rules = compileRules(all);
    RecExpr program = convProgram(4, 3);
    EqSatLimits limits;
    limits.maxIters = 6;
    limits.maxNodes = 60'000;
    limits.scheduler = state.range(0) == 0 ? EqSatScheduler::Simple
                                           : EqSatScheduler::Backoff;
    limits.schedMatchLimit = 1'000;
    limits.schedBanLength = 2;
    std::size_t bans = 0, nodes = 0;
    int iters = 0;
    for (auto _ : state) {
        EGraph eg;
        eg.addExpr(program);
        EqSatReport report = runEqSat(eg, rules, limits);
        benchmark::DoNotOptimize(report.nodes);
        bans = report.schedBans;
        nodes = report.nodes;
        iters = report.iterations;
    }
    state.counters["scheduler"] = static_cast<double>(state.range(0));
    state.counters["sched_bans"] = static_cast<double>(bans);
    state.counters["egraph_nodes"] = static_cast<double>(nodes);
    state.counters["iterations"] = static_cast<double>(iters);
}
BENCHMARK(BM_EqSatSchedulerSweep)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("scheduler")
    ->Unit(benchmark::kMillisecond);

/**
 * End-to-end Fig. 3 compile (the paper's loop: expand, compile,
 * extract, prune) with the scheduler on and off — the ISSUE's
 * compile-speedup acceptance workload. scheduler 0 = simple,
 * 1 = backoff.
 */
void
BM_CompileFig3Scheduler(benchmark::State &state)
{
    CompilerConfig config;
    config.withEqSatThreads(1);
    if (state.range(0) == 1)
        config.withScheduler(EqSatScheduler::Backoff, 500, 2);
    IsariaCompiler compiler = makeDiospyrosCompiler(config);
    KernelHarness harness(KernelSpec::conv2d(4, 4, 3, 3));
    const RecExpr &program = harness.scalarProgram();
    DspCostModel cost;
    std::uint64_t finalCost = 0;
    for (auto _ : state) {
        CompileStats stats;
        RecExpr out = compiler.compile(program, &stats);
        benchmark::DoNotOptimize(out.size());
        finalCost = stats.finalCost;
    }
    state.counters["scheduler"] = static_cast<double>(state.range(0));
    state.counters["final_cost"] = static_cast<double>(finalCost);
}
BENCHMARK(BM_CompileFig3Scheduler)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("scheduler")
    ->Unit(benchmark::kMillisecond);

/**
 * The pin for the obs no-op fast path: one span construct/destroy per
 * iteration with no active session. This is the exact code every
 * instrumented event site runs when tracing is off — it must stay a
 * single predicted branch (single-digit nanoseconds), which is what
 * keeps disabled-tracing eqsat throughput within the 2% budget.
 */
void
BM_ObsSpanDisabled(benchmark::State &state)
{
    for (auto _ : state) {
        obs::Span span("bench/disabled-site", 42);
        benchmark::DoNotOptimize(&span);
    }
}
BENCHMARK(BM_ObsSpanDisabled);

/** Same event site with a live session: intern + clock + ring push. */
void
BM_ObsSpanEnabled(benchmark::State &state)
{
    obs::TraceSession *outer = obs::TraceSession::active();
    obs::TraceSession session;
    session.activate();
    for (auto _ : state) {
        obs::Span span("bench/enabled-site", 42);
        benchmark::DoNotOptimize(&span);
    }
    session.deactivate();
    if (outer)
        outer->activate();
    state.counters["events"] =
        static_cast<double>(session.drain().size());
}
BENCHMARK(BM_ObsSpanEnabled);

/** A registry counter add with a live session: the registry bump plus
 *  the derived trace counter event. */
void
BM_ObsCounterEnabled(benchmark::State &state)
{
    obs::TraceSession *outer = obs::TraceSession::active();
    obs::TraceSession session;
    session.activate();
    static const obs::CounterHandle c =
        obs::metricCounter("bench/counter");
    std::uint64_t i = 0;
    for (auto _ : state)
        obs::metricAdd(c, ++i);
    session.deactivate();
    if (outer)
        outer->activate();
}
BENCHMARK(BM_ObsCounterEnabled);

/**
 * The metrics kill-switch path: one relaxed load + branch per site.
 * Unlike tracing, metrics default to ON, so this bench is the A-side
 * of the overhead story, not the operating mode.
 */
void
BM_MetricsDisabled(benchmark::State &state)
{
    bool saved = obs::metricsEnabled();
    obs::setMetricsEnabled(false);
    static const obs::HistogramHandle h =
        obs::metricHistogram("bench/metrics/disabled_ns");
    std::uint64_t i = 0;
    for (auto _ : state)
        obs::metricRecord(h, ++i);
    obs::setMetricsEnabled(saved);
}
BENCHMARK(BM_MetricsDisabled);

/**
 * The always-on histogram hot path: bit-scan bucket index plus a
 * handful of relaxed single-writer bumps. The ISSUE budget — and
 * bench_thresholds.json, via scaling's summary metrics — pins this
 * at ~10 ns/site.
 */
void
BM_HistogramRecord(benchmark::State &state)
{
    bool saved = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    static const obs::HistogramHandle h =
        obs::metricHistogram("bench/metrics/record_ns");
    std::uint64_t i = 0;
    for (auto _ : state)
        obs::metricRecord(h, ++i);
    obs::setMetricsEnabled(saved);
}
BENCHMARK(BM_HistogramRecord);

/** Counter add with metrics on: one relaxed load+store. */
void
BM_CounterAdd(benchmark::State &state)
{
    bool saved = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    static const obs::CounterHandle c =
        obs::metricCounter("bench/metrics/adds");
    for (auto _ : state)
        obs::metricAdd(c);
    obs::setMetricsEnabled(saved);
}
BENCHMARK(BM_CounterAdd);

void
BM_LiftKernel(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        RecExpr p = liftKernel(make2DConv(n, n, 3, 3), 4);
        benchmark::DoNotOptimize(p.size());
    }
}
BENCHMARK(BM_LiftKernel)->Arg(8)->Arg(16);

} // namespace
} // namespace isaria

int
main(int argc, char **argv)
{
    // Tracing is opt-in here (unlike the figure harnesses): an
    // always-on session would contaminate BM_ObsSpanDisabled.
    isaria::obs::ObsOptions opts =
        isaria::obs::ObsOptions::parse(argc, argv);
    isaria::obs::ScopedTrace trace(opts);

    // Default to a JSON sidecar (BENCH_egraph.json) unless the caller
    // already directs output somewhere.
    std::vector<char *> args(argv, argv + argc);
    bool hasOut = false;
    for (int i = 1; i < argc; ++i)
        hasOut |= std::strncmp(argv[i], "--benchmark_out", 15) == 0;
    std::string outFlag = "--benchmark_out=BENCH_egraph.json";
    std::string formatFlag = "--benchmark_out_format=json";
    if (!hasOut) {
        args.push_back(outFlag.data());
        args.push_back(formatFlag.data());
    }
    int argCount = static_cast<int>(args.size());
    benchmark::Initialize(&argCount, args.data());
    if (benchmark::ReportUnrecognizedArguments(argCount, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // BENCH_egraph.json stays raw google-benchmark output; the
    // schema-versioned sidecar carries the common obs block.
    isaria::bench::BenchJson json("micro_egraph");
    json.summary().boolean("traced", opts.enabled());
    json.write(trace);
    return 0;
}
