// Release-build scaling truth for the substrate: one binary that
// measures (a) the arena-vs-heap allocator A/B on the explosive
// saturation workload and (b) wall-clock speedup versus e-matching
// threads for saturation, rule synthesis, and full Fig. 3 compiles.
//
// Results land in BENCH_scaling.json (schema v2: the host block
// records build_type/num_cpus/git_sha, so a Debug number can never
// masquerade as a Release result). tools/bench_check.py compares the
// summary metrics against committed thresholds and fails CI on >20%
// regression; `--quick` shrinks every workload to ctest scale.
//
// The allocator A/B counts *global operator new calls* — the metric
// the arena exists to shrink — via the overrides below. Both runs
// execute the identical workload; only ISARIA_EGRAPH_ARENA differs,
// which routes the e-graph's node-container, spill-buffer, and
// op-index storage either through its ArenaPool or the heap.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common.h"

#include "baseline/diospyros.h"
#include "baseline/harness.h"
#include "compiler/compiler.h"
#include "egraph/rewrite.h"
#include "egraph/runner.h"
#include "frontend/kernels.h"
#include "obs/metrics.h"
#include "support/timer.h"
#include "synth/synthesize.h"
#include "term/pattern.h"

// ---------------------------------------------------------------------
// Global allocation counting. Every form forwards to malloc/free with
// one relaxed counter bump; the aligned forms exist so any
// over-aligned allocation in the process keeps working.

static std::atomic<std::uint64_t> gNewCalls{0};

static void *
countedAlloc(std::size_t bytes)
{
    gNewCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

static void *
countedAllocAligned(std::size_t bytes, std::size_t align)
{
    gNewCalls.fetch_add(1, std::memory_order_relaxed);
    if (bytes == 0)
        bytes = align;
    // aligned_alloc requires the size to be a multiple of alignment.
    std::size_t rounded = (bytes + align - 1) / align * align;
    if (void *p = std::aligned_alloc(align, rounded))
        return p;
    throw std::bad_alloc();
}

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAllocAligned(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAllocAligned(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace isaria
{
namespace
{

/** The explosive saturation workload: Diospyros hand rules plus raw
 *  AC rules on a lifted 2-D convolution (micro_egraph's scheduler
 *  sweep, the repo's standing "explosive ruleset" acceptance bench). */
std::vector<CompiledRule>
explosiveRules()
{
    std::vector<Rule> all = diospyrosHandRules().rules();
    all.push_back(parseRule("(+ ?a ?b) ~> (+ ?b ?a)"));
    all.push_back(parseRule("(+ (+ ?a ?b) ?c) ~> (+ ?a (+ ?b ?c))"));
    all.push_back(parseRule("(* ?a ?b) ~> (* ?b ?a)"));
    return compileRules(all);
}

EqSatLimits
explosiveLimits(bool quick, int threads)
{
    EqSatLimits limits;
    limits.maxIters = quick ? 3 : 6;
    limits.maxNodes = 60'000;
    limits.numThreads = threads;
    limits.scheduler = EqSatScheduler::Backoff;
    limits.schedMatchLimit = 1'000;
    limits.schedBanLength = 2;
    return limits;
}

struct SaturationRun
{
    double seconds = 0;
    std::uint64_t allocCalls = 0;
    std::size_t nodes = 0;
    EGraphArenaStats arena;
};

/** One explosive saturation with the arena switched @p arenaOn,
 *  counting global allocator calls across graph build + saturation. */
SaturationRun
runSaturation(const std::vector<CompiledRule> &rules,
              const RecExpr &program, const EqSatLimits &limits,
              bool arenaOn)
{
    setenv("ISARIA_EGRAPH_ARENA", arenaOn ? "1" : "0", 1);
    SaturationRun run;
    Stopwatch watch;
    std::uint64_t before = gNewCalls.load(std::memory_order_relaxed);
    EGraph eg;
    eg.addExpr(program);
    EqSatReport report = runEqSat(eg, rules, limits);
    run.allocCalls =
        gNewCalls.load(std::memory_order_relaxed) - before;
    run.seconds = watch.elapsedSeconds();
    run.nodes = report.nodes;
    run.arena = eg.arenaStats();
    return run;
}

} // namespace
} // namespace isaria

int
main(int argc, char **argv)
{
    using namespace isaria;
    using namespace isaria::bench;

    obs::ObsOptions opts = obs::ObsOptions::parse(argc, argv);
    opts.alwaysRecord = true;
    obs::ScopedTrace trace(opts);

    bool quick = false;
    for (int i = 1; i < argc; ++i)
        quick |= std::strcmp(argv[i], "--quick") == 0;

    const unsigned numCpus = std::thread::hardware_concurrency();
    std::vector<int> threadList{1, 2, 4};
    if (quick)
        threadList = {1, 2};

    BenchJson json("scaling");
    json.summary().boolean("quick", quick);

    // -----------------------------------------------------------------
    // Allocator A/B: identical explosive saturations, arena off/on.
    // One warm-up run per mode pre-faults lazily-initialized process
    // state (rule compilation is hoisted out entirely) so the counted
    // pair differs only in allocator routing.
    auto rules = explosiveRules();
    RecExpr program = liftKernel(make2DConv(4, 4, 3, 3), 4);
    EqSatLimits abLimits = explosiveLimits(quick, 1);
    runSaturation(rules, program, abLimits, false);
    SaturationRun heap = runSaturation(rules, program, abLimits, false);
    runSaturation(rules, program, abLimits, true);
    SaturationRun arena = runSaturation(rules, program, abLimits, true);
    setenv("ISARIA_EGRAPH_ARENA", "1", 1);

    double allocReductionPct =
        heap.allocCalls
            ? 100.0 * (1.0 - static_cast<double>(arena.allocCalls) /
                                 static_cast<double>(heap.allocCalls))
            : 0.0;
    double arenaSpeedup =
        arena.seconds > 0 ? heap.seconds / arena.seconds : 0.0;
    std::fprintf(stderr,
                 "[scaling] allocator A/B: heap %llu calls %.3fs, "
                 "arena %llu calls %.3fs (%.1f%% fewer calls, %.2fx)\n",
                 static_cast<unsigned long long>(heap.allocCalls),
                 heap.seconds,
                 static_cast<unsigned long long>(arena.allocCalls),
                 arena.seconds, allocReductionPct, arenaSpeedup);

    json.summary().integer("alloc_calls_heap",
                           static_cast<std::int64_t>(heap.allocCalls));
    json.summary().integer("alloc_calls_arena",
                           static_cast<std::int64_t>(arena.allocCalls));
    json.summary().number("alloc_reduction_pct", allocReductionPct);
    json.summary().number("arena_saturation_speedup", arenaSpeedup);
    json.summary().integer(
        "arena_chunk_allocs",
        static_cast<std::int64_t>(arena.arena.chunkAllocations));
    json.summary().integer(
        "arena_bytes_reserved",
        static_cast<std::int64_t>(arena.arena.bytesReserved));
    json.summary().integer("saturation_nodes",
                           static_cast<std::int64_t>(arena.nodes));

    // -----------------------------------------------------------------
    // Metrics hot-path overhead: ns/op for a histogram record with
    // the registry on and with the kill switch off, plus the global
    // operator-new count across the recording loop — the steady-state
    // hot path must stay allocation-free (gated at exactly 0 by
    // bench_thresholds.json; the warm-up record takes the one-time
    // shard/cell growth first).
    {
        constexpr std::uint64_t kOps = 2'000'000;
        obs::HistogramHandle hist =
            obs::metricHistogram("bench/metrics/overhead_ns");
        obs::setMetricsEnabled(true);
        obs::metricRecord(hist, 1);
        std::uint64_t allocsBefore =
            gNewCalls.load(std::memory_order_relaxed);
        Stopwatch onWatch;
        for (std::uint64_t i = 0; i < kOps; ++i)
            obs::metricRecord(hist, i);
        double recordNs = onWatch.elapsedSeconds() * 1e9 /
                          static_cast<double>(kOps);
        auto recordAllocs = static_cast<std::int64_t>(
            gNewCalls.load(std::memory_order_relaxed) - allocsBefore);

        obs::setMetricsEnabled(false);
        Stopwatch offWatch;
        for (std::uint64_t i = 0; i < kOps; ++i)
            obs::metricRecord(hist, i);
        double disabledNs = offWatch.elapsedSeconds() * 1e9 /
                            static_cast<double>(kOps);
        obs::setMetricsEnabled(true);

        std::fprintf(stderr,
                     "[scaling] metrics record: %.2f ns/op enabled, "
                     "%.2f ns/op disabled, %lld allocs\n",
                     recordNs, disabledNs,
                     static_cast<long long>(recordAllocs));
        json.summary().number("metrics_record_ns", recordNs);
        json.summary().number("metrics_disabled_ns", disabledNs);
        json.summary().integer("metrics_record_allocs", recordAllocs);
    }

    // -----------------------------------------------------------------
    // Thread sweeps. Each row records absolute seconds plus speedup
    // against the 1-thread row of its suite; on a 1-core host the
    // speedups just document oversubscription (num_cpus is in the
    // host block, so the reader can tell).

    // (1) Saturation / e-matching.
    double satBase = 0;
    for (int threads : threadList) {
        SaturationRun run = runSaturation(
            rules, program, explosiveLimits(quick, threads), true);
        if (threads == 1)
            satBase = run.seconds;
        BenchJsonObject &row = json.newRow();
        row.text("suite", "saturation");
        row.integer("threads", threads);
        row.number("seconds", run.seconds);
        row.number("speedup",
                   run.seconds > 0 ? satBase / run.seconds : 0.0);
        row.integer("nodes", static_cast<std::int64_t>(run.nodes));
        row.integer("arena_bytes",
                    static_cast<std::int64_t>(run.arena.bytesAllocated));
        std::fprintf(stderr, "[scaling] saturation %d threads: %.3fs\n",
                     threads, run.seconds);
    }

    // (2) Rule synthesis (verification + cvec threads).
    double synthBase = 0;
    for (int threads : threadList) {
        SynthConfig config;
        config.timeoutSeconds = quick ? 1.0 : 4.0;
        config.numThreads = threads;
        Stopwatch watch;
        SynthReport report = synthesizeRules(IsaSpec{}, config);
        double seconds = watch.elapsedSeconds();
        if (threads == 1)
            synthBase = seconds;
        BenchJsonObject &row = json.newRow();
        row.text("suite", "synthesis");
        row.integer("threads", threads);
        row.number("seconds", seconds);
        row.number("speedup", seconds > 0 ? synthBase / seconds : 0.0);
        row.integer("rules",
                    static_cast<std::int64_t>(report.rules.size()));
        std::fprintf(stderr,
                     "[scaling] synthesis %d threads: %.3fs (%zu rules)\n",
                     threads, seconds, report.rules.size());
    }

    // (3) Full Fig. 3 compiles.
    KernelSpec spec = quick ? KernelSpec::conv2d(3, 3, 2, 2)
                            : KernelSpec::conv2d(4, 4, 3, 3);
    KernelHarness harness(spec);
    double compileBase = 0;
    for (int threads : threadList) {
        CompilerConfig config;
        config.withEqSatThreads(threads);
        if (quick)
            config.maxLoopIterations = 3;
        IsariaCompiler compiler = makeDiospyrosCompiler(config);
        CompileStats stats;
        Stopwatch watch;
        RecExpr out = compiler.compile(harness.scalarProgram(), &stats);
        double seconds = watch.elapsedSeconds();
        (void)out;
        if (threads == 1)
            compileBase = seconds;
        BenchJsonObject &row = json.newRow();
        row.text("suite", "compile");
        row.integer("threads", threads);
        row.number("seconds", seconds);
        row.number("speedup",
                   seconds > 0 ? compileBase / seconds : 0.0);
        row.integer("final_cost",
                    static_cast<std::int64_t>(stats.finalCost));
        std::fprintf(stderr, "[scaling] compile %d threads: %.3fs\n",
                     threads, seconds);
    }

    json.summary().integer("num_cpus_observed",
                           static_cast<std::int64_t>(numCpus));
    return json.write(trace) ? 0 : 1;
}
