// compile-fusion and compile-rvv8: generate a compiler from nothing,
// then compile, lower, simulate and check a ladder of Fig. 4 kernels.
//
// Everything runs on one thread: synthesis, its derivability checks
// and every saturation. Multi-threaded compile times did not repeat
// on the 4-vCPU machine the bounds were set on (README.md). Every
// wall-clock limit is lifted to a safety net far above the work it
// guards, so node, iteration and step limits alone decide the rule
// set and the programs; a saturation that still stops on the clock
// fails its operation.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>

#include "cache/rule_cache.h"
#include "check.h"
#include "compiler/pipeline.h"
#include "lower/lower.h"
#include "workloads.h"

using namespace isaria;

namespace perfbench
{

namespace
{

/** Cold compiler generations per run; setup_s is their median. */
constexpr int kSetupReps = 2;
/** Passes over the ladder per run at least. One pass of compiles that
 *  take seconds each sampled only one or two of the machine's 10-30 s
 *  fast and slow phases, and timed each kernel once (README.md). */
constexpr int kMinPasses = 2;
/** Clock safety nets, far above any saturation's or synthesis's
 *  work-bound time on the reference machine (README.md). */
constexpr double kSaturationNetSeconds = 300;
constexpr double kSynthNetSeconds = 600;
constexpr double kDerivCheckNetSeconds = 60;

struct Workload
{
    MachineDesc machine;
    std::vector<KernelSpec> ladder;
};

Workload
workloadFor(const std::string &name)
{
    // From one-chunk to multi-chunk programs. A fusion compile takes
    // 7-12 s at one thread, so its ladder stays short; rvv8 compiles
    // take 2-6 s, which affords its largest multi-chunk kernels and
    // QrD, whose emitted code is slower than scalar (README.md).
    if (name == "compile-fusion")
        return Workload{MachineDesc::fusionG3(),
                        {KernelSpec::matmul(2, 2, 2),
                         KernelSpec::conv2d(4, 4, 2, 2),
                         KernelSpec::matmul(4, 4, 4)}};
    return Workload{MachineDesc::rvv8(),
                    {KernelSpec::matmul(4, 4, 4), KernelSpec::matmul(8, 8, 8),
                     KernelSpec::conv2d(10, 10, 3, 3), KernelSpec::qrd(3)}};
}

SynthConfig
pinnedSynthConfig(const MachineDesc &machine)
{
    SynthConfig config = synthConfigFor(machine);
    config.numThreads = 1;
    config.derivLimits.numThreads = 1;
    config.timeoutSeconds = kSynthNetSeconds;
    config.derivLimits.timeoutSeconds = kDerivCheckNetSeconds;
    return config;
}

CompilerConfig
pinnedCompilerConfig(const MachineDesc &machine)
{
    CompilerConfig config = compilerConfigFor(machine);
    config.withEqSatThreads(1);
    for (EqSatLimits *limits : {&config.expansionLimits,
                                &config.compilationLimits,
                                &config.optLimits})
        limits->timeoutSeconds = kSaturationNetSeconds;
    config.memoEntries = 0;
    return config;
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

/** One cold compiler generation. */
struct Setup
{
    double seconds = 0;
    double synthSeconds = 0;
    SynthReport synth;
    std::uint64_t rulesHash = 0;
    double entryKb = 0;
    PhasedRules phased;
    std::unique_ptr<IsariaCompiler> compiler;
};

Setup
generate(const Workload &w, int rep, Tracer &tracer,
         Clock::time_point start)
{
    IsaSpec isa(w.machine);
    SynthConfig sc = pinnedSynthConfig(w.machine);
    CompilerConfig cc = pinnedCompilerConfig(w.machine);
    RuleCache cache("cache-" + std::to_string(rep));
    if (std::filesystem::exists(cache.dir()))
        throw std::runtime_error("rule cache " + cache.dir() +
                                 " is not fresh");

    Setup s;
    Span setupSpan(tracer, "setup");
    {
        Span span(tracer, "synth");
        Clock::time_point t0 = Clock::now();
        s.synth = synthesizeRulesCached(isa, sc, cache);
        s.synthSeconds = secondsBetween(t0, Clock::now());
    }
    if (s.synth.fromCache || s.synth.hitDeadline)
        throw std::runtime_error("synthesis was not a whole cold run");
    std::uint64_t fingerprint = synthFingerprint(isa, sc);
    CacheProbe probe;
    {
        Span span(tracer, "cache.load");
        probe = cache.load(isa, fingerprint);
    }
    if (!probe.hit())
        throw std::runtime_error("rule cache entry missing after "
                                 "synthesis: " +
                                 probe.diagnostic);
    {
        Span span(tracer, "phase.assign");
        s.phased = assignPhases(probe.entry->rules, cc.costModel);
    }
    {
        Span span(tracer, "compiler.build");
        s.compiler = std::make_unique<IsariaCompiler>(s.phased, cc);
    }
    s.seconds = secondsBetween(start, Clock::now());

    std::string rules = probe.entry->rules.toString();
    if (rules != s.synth.rules.toString())
        throw std::runtime_error("rule cache entry differs from the "
                                 "synthesized rule set");
    s.rulesHash = fnv1a(rules);
    s.entryKb = static_cast<double>(std::filesystem::file_size(
                    cache.entryPath(isa, fingerprint))) /
                1024.0;
    return s;
}

/** One timed operation: lift, compile, lower. */
struct Op
{
    std::size_t kernel = 0;
    double seconds = 0;
    std::size_t programNodes = 0;
    CompileStats stats;
    std::optional<VmProgram> program;
    std::string failure;
    std::uint64_t cycles = 0;
};

void
runOp(const Workload &w, const IsariaCompiler &compiler, Op &op,
      std::int64_t id, Tracer &tracer)
{
    const KernelSpec &spec = w.ladder[op.kernel];
    int width = w.machine.vectorWidth;
    Span opSpan(tracer, "op", id);
    Clock::time_point t0 = Clock::now();
    Kernel kernel;
    RecExpr program;
    {
        Span span(tracer, "frontend.lift");
        kernel = spec.build();
        program = liftKernel(kernel, width);
    }
    RecExpr compiled;
    {
        Span span(tracer, "compiler.compile");
        compiled = compiler.compile(program, &op.stats);
    }
    Result<VmProgram> lowered = Error{"not lowered", 0};
    {
        Span span(tracer, "lower.lower");
        LowerOptions options;
        options.width = width;
        options.totalOutputs = kernel.totalOutputs();
        options.scalarizeRawChunks = true;
        lowered = tryLowerProgram(compiled, options);
    }
    op.seconds = secondsBetween(t0, Clock::now());
    op.programNodes = program.size();

    bool clockStop = std::any_of(
        op.stats.reports.begin(), op.stats.reports.end(),
        [](const EqSatReport &r) { return r.stop == StopReason::TimeLimit; });
    if (!lowered.ok())
        op.failure = "did not lower; the scalar program would replace it";
    else if (op.stats.degradation != DegradeLevel::None)
        op.failure = std::string("degraded: ") +
                     degradeLevelName(op.stats.degradation);
    else if (clockStop)
        op.failure = "a saturation stopped on its clock safety net";
    if (lowered.ok())
        op.program = lowered.take();
}

} // namespace

RunResult
runCompileWorkload(const Options &options, Tracer &tracer)
{
    const Workload w = workloadFor(options.workload);
    RunResult result;

    // Set-up: kSetupReps cold generations, each into a fresh cache.
    // The first is timed from process start, and its peak resident
    // set is the set-up's.
    std::vector<double> setupSeconds, synthSeconds, storeMs;
    double setupPeakRss = 0;
    Setup setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Clock::time_point start = rep == 0 ? processStart() : Clock::now();
        std::uint64_t previousHash = setup.rulesHash;
        setup = Setup{}; // frees the previous compiler first
        setup = generate(w, rep, tracer, start);
        if (rep == 0)
            setupPeakRss = peakRssMb();
        if (rep > 0 && setup.rulesHash != previousHash)
            throw std::runtime_error("two cold syntheses gave different "
                                     "rule sets");
        setupSeconds.push_back(setup.seconds);
        synthSeconds.push_back(setup.synthSeconds);
        storeMs.push_back(1000 * (setup.synthSeconds -
                                  setup.synth.enumerateSeconds -
                                  setup.synth.shrinkSeconds -
                                  setup.synth.generalizeSeconds));
    }

    // Timed phase: kMinPasses whole passes over the ladder, then more
    // while the time is not up.
    std::vector<Op> ops;
    RssSampler rss;
    rss.start();
    Clock::time_point timedStart = Clock::now();
    for (int pass = 0;
         pass < kMinPasses ||
         secondsBetween(timedStart, Clock::now()) < options.seconds;
         ++pass) {
        for (std::size_t k = 0; k < w.ladder.size(); ++k) {
            Op op;
            op.kernel = k;
            runOp(w, *setup.compiler, op,
                  static_cast<std::int64_t>(ops.size()), tracer);
            ops.push_back(std::move(op));
        }
    }
    double timedSeconds = secondsBetween(timedStart, Clock::now());
    double peakRss = rss.stop();

    // Checks: the scalar baseline and every emitted program, against
    // the benchmark's own expected outputs.
    std::size_t kernels = w.ladder.size();
    std::vector<VmMemory> inputs(kernels);
    std::vector<std::vector<double>> expected(kernels);
    std::vector<std::uint64_t> scalarCycles(kernels);
    for (std::size_t k = 0; k < kernels; ++k) {
        const KernelSpec &spec = w.ladder[k];
        Kernel kernel = spec.build();
        inputs[k] = makeInputs(kernel, options.seed * 1'000'003 + k);
        expected[k] = expectedOutputs(spec, inputs[k]);
        LowerOptions scalar;
        scalar.width = w.machine.vectorWidth;
        scalar.scalarOnly = true;
        scalar.totalOutputs = kernel.totalOutputs();
        VmRunResult run;
        {
            Span span(tracer, "baseline.scalar");
            run = runProgram(
                lowerProgram(liftKernel(kernel, scalar.width), scalar),
                inputs[k], w.machine.latency);
        }
        Verdict v = checkOutputs(spec, inputs[k], expected[k],
                                 run.memory.at(outputArraySymbol()));
        if (!v.ok) {
            result.correct = false;
            std::fprintf(stderr, "scalar %s: %s\n", spec.label().c_str(),
                         v.why.c_str());
        }
        scalarCycles[k] = run.cycles;
    }

    std::vector<std::uint64_t> firstCycles(kernels, 0);
    std::size_t completed = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        Op &op = ops[i];
        const KernelSpec &spec = w.ladder[op.kernel];
        ++result.attempted;
        if (!op.failure.empty()) {
            ++result.failed;
            std::fprintf(stderr, "op %zu %s failed: %s\n", i,
                         spec.label().c_str(), op.failure.c_str());
            continue;
        }
        VmRunResult run;
        {
            Span span(tracer, "vm.simulate", static_cast<std::int64_t>(i));
            run = runProgram(*op.program, inputs[op.kernel],
                             w.machine.latency);
        }
        Verdict v = checkOutputs(spec, inputs[op.kernel], expected[op.kernel],
                                 run.memory.at(outputArraySymbol()));
        if (!v.ok) {
            ++result.failed;
            result.correct = false;
            std::fprintf(stderr, "op %zu %s: wrong output: %s\n", i,
                         spec.label().c_str(), v.why.c_str());
            continue;
        }
        op.cycles = run.cycles;
        if (!firstCycles[op.kernel])
            firstCycles[op.kernel] = run.cycles;
        else if (firstCycles[op.kernel] != run.cycles)
            std::fprintf(
                stderr, "%s: cycles differ between passes (%llu vs %llu)\n",
                spec.label().c_str(),
                static_cast<unsigned long long>(firstCycles[op.kernel]),
                static_cast<unsigned long long>(run.cycles));
        ++completed;
    }

    std::vector<double> latencies, speedups, costRatios;
    for (const Op &op : ops)
        latencies.push_back(op.seconds);
    for (std::size_t k = 0; k < kernels; ++k) {
        if (firstCycles[k])
            speedups.push_back(static_cast<double>(scalarCycles[k]) /
                               static_cast<double>(firstCycles[k]));
        const CompileStats &st = ops[k].stats;
        if (st.initialCost)
            costRatios.push_back(static_cast<double>(st.finalCost) /
                                 static_cast<double>(st.initialCost));
    }

    std::map<std::string, double> &e2e = result.endToEnd;
    e2e["setup_s"] = median(setupSeconds);
    e2e["setup_peak_rss_mb"] = setupPeakRss;
    e2e["peak_rss_mb"] = peakRss;
    e2e["latency_p50_ms"] = 1000 * median(latencies);
    e2e["throughput_per_s"] = static_cast<double>(completed) / timedSeconds;
    e2e["speedup_geomean"] = geomean(speedups);

    // Per-layer figures: set-up ones are medians over the
    // generations, timed-phase ones are means per operation.
    const SynthReport &sr = setup.synth;
    auto n = static_cast<double>(ops.size());
    auto perOp = [&](auto field) {
        double total = 0;
        for (const Op &op : ops)
            total += static_cast<double>(field(op));
        return total / n;
    };
    auto perSaturation = [&](auto field) {
        return perOp([&](const Op &op) {
            double total = 0;
            for (const EqSatReport &r : op.stats.reports)
                total += static_cast<double>(field(r));
            return total;
        });
    };
    auto stops = [&](StopReason reason) {
        return perSaturation(
            [&](const EqSatReport &r) { return r.stop == reason; });
    };
    std::size_t peakNodes = 0, peakBytes = 0;
    for (const Op &op : ops) {
        for (const EqSatReport &r : op.stats.reports) {
            peakNodes = std::max(peakNodes, r.nodes);
            peakBytes = std::max(peakBytes, r.bytes);
        }
    }
    auto spanMedianMs = [&](const char *name) {
        return 1000 * median(tracer.durations(name));
    };
    auto rules = [&](Phase phase) {
        return static_cast<double>(setup.phased.countOf(phase));
    };
    double compileSeconds = tracer.selfSeconds("compiler.compile") / n;
    CompileMemo::Stats memo = setup.compiler->memoStats();

    std::map<std::string, double> &layer = result.perLayer;
    layer["synth.total_s"] = median(synthSeconds);
    layer["synth.enumerate_s"] = sr.enumerateSeconds;
    layer["synth.shrink_s"] = sr.shrinkSeconds;
    layer["synth.generalize_s"] = sr.generalizeSeconds;
    layer["synth.terms"] = static_cast<double>(sr.termsEnumerated);
    layer["synth.candidates"] = static_cast<double>(sr.candidatesConsidered);
    layer["synth.rejected_unsound"] = static_cast<double>(sr.rejectedUnsound);
    layer["synth.pruned_derivable"] = static_cast<double>(sr.prunedDerivable);
    layer["synth.one_wide_rules"] =
        static_cast<double>(sr.oneWideRules.size());
    layer["synth.rules"] = static_cast<double>(sr.rules.size());
    layer["cache.store_ms"] = median(storeMs);
    layer["cache.load_ms"] = spanMedianMs("cache.load");
    layer["cache.entry_kb"] = setup.entryKb;
    layer["phase.assign_ms"] = spanMedianMs("phase.assign");
    layer["phase.expansion_rules"] = rules(Phase::Expansion);
    layer["phase.compilation_rules"] = rules(Phase::Compilation);
    layer["phase.optimization_rules"] = rules(Phase::Optimization);
    layer["frontend.lift_ms"] = 1000 * tracer.selfSeconds("frontend.lift") / n;
    layer["frontend.program_nodes"] =
        perOp([](const Op &op) { return op.programNodes; });
    layer["compiler.build_ms"] = spanMedianMs("compiler.build");
    layer["compiler.compile_s"] = compileSeconds;
    layer["compiler.rounds"] =
        perOp([](const Op &op) { return op.stats.loopIterations; });
    layer["compiler.eqsat_calls"] =
        perOp([](const Op &op) { return op.stats.eqsatCalls; });
    layer["compiler.extract_s"] =
        compileSeconds -
        perSaturation([](const EqSatReport &r) { return r.seconds; });
    layer["compiler.cost_ratio_geomean"] = geomean(costRatios);
    layer["compiler.memo_hits"] = static_cast<double>(memo.hits);
    layer["compiler.memo_misses"] = static_cast<double>(memo.misses);
    layer["egraph.search_s"] =
        perSaturation([](const EqSatReport &r) { return r.searchSeconds; });
    layer["egraph.apply_s"] =
        perSaturation([](const EqSatReport &r) { return r.applySeconds; });
    layer["egraph.iterations"] =
        perSaturation([](const EqSatReport &r) { return r.iterations; });
    layer["egraph.peak_nodes"] = static_cast<double>(peakNodes);
    layer["egraph.node_limit_stops"] = stops(StopReason::NodeLimit);
    layer["egraph.iter_limit_stops"] = stops(StopReason::IterLimit);
    layer["egraph.saturated_stops"] = stops(StopReason::Saturated);
    layer["egraph.step_budget_stops"] = perSaturation(
        [](const EqSatReport &r) { return r.stepBudgetExhausted; });
    layer["egraph.time_limit_stops"] = stops(StopReason::TimeLimit);
    layer["egraph.peak_mb"] = static_cast<double>(peakBytes) / (1 << 20);
    layer["lower.lower_ms"] = 1000 * tracer.selfSeconds("lower.lower") / n;
    layer["lower.instructions"] = perOp([](const Op &op) {
        return op.program ? op.program->code.size() : 0;
    });
    layer["vm.cycles"] = perOp([](const Op &op) { return op.cycles; });
    layer["vm.scalar_cycles"] =
        perOp([&](const Op &op) { return scalarCycles[op.kernel]; });
    layer["vm.simulate_ms"] = spanMedianMs("vm.simulate");

    // details.jsonl: one line per operation plus the set-up.
    std::ofstream details("details.jsonl");
    char line[768];
    std::snprintf(line, sizeof line,
                  "{\"workload\":\"%s\",\"machine\":\"%s\",\"rules_fnv1a\":"
                  "\"%016llx\",\"rules\":%zu,\"one_wide_rules\":%zu,"
                  "\"expansion\":%zu,\"compilation\":%zu,\"optimization\":%zu,"
                  "\"terms\":%zu,\"synth_s\":[%.3f,%.3f],"
                  "\"setup_s\":[%.3f,%.3f],\"enumerate_s\":%.3f,"
                  "\"shrink_s\":%.3f,\"generalize_s\":%.3f}",
                  options.workload.c_str(), w.machine.name().c_str(),
                  static_cast<unsigned long long>(setup.rulesHash),
                  sr.rules.size(), sr.oneWideRules.size(),
                  setup.phased.countOf(Phase::Expansion),
                  setup.phased.countOf(Phase::Compilation),
                  setup.phased.countOf(Phase::Optimization),
                  sr.termsEnumerated, synthSeconds.front(), synthSeconds.back(),
                  setupSeconds.front(), setupSeconds.back(),
                  sr.enumerateSeconds, sr.shrinkSeconds, sr.generalizeSeconds);
    details << line << '\n';
    for (const Op &op : ops) {
        double search = 0, apply = 0, saturate = 0;
        for (const EqSatReport &r : op.stats.reports) {
            search += r.searchSeconds;
            apply += r.applySeconds;
            saturate += r.seconds;
        }
        std::snprintf(
            line, sizeof line,
            "{\"kernel\":\"%s\",\"op_s\":%.3f,\"compile_s\":%.3f,"
            "\"search_s\":%.3f,\"apply_s\":%.3f,\"saturate_s\":%.3f,"
            "\"initial_cost\":%llu,\"final_cost\":%llu,\"rounds\":%d,"
            "\"eqsat_calls\":%d,\"peak_nodes\":%zu,\"cycles\":%llu,"
            "\"scalar_cycles\":%llu,\"failure\":\"%s\"}",
            w.ladder[op.kernel].label().c_str(), op.seconds,
            op.stats.seconds, search, apply, saturate,
            static_cast<unsigned long long>(op.stats.initialCost),
            static_cast<unsigned long long>(op.stats.finalCost),
            op.stats.loopIterations, op.stats.eqsatCalls,
            op.stats.peakNodes, static_cast<unsigned long long>(op.cycles),
            static_cast<unsigned long long>(scalarCycles[op.kernel]),
            op.failure.c_str());
        details << line << '\n';
    }
    return result;
}

} // namespace perfbench
