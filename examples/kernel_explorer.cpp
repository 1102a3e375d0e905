// Kernel explorer: pick a kernel family and size on the command line,
// run every comparator on it, and optionally dump the generated DSP
// assembly — the workflow a DSP engineer uses to understand where the
// cycles go.
//
// Usage:
//   kernel_explorer [conv R C KR KC | matmul N M K | qprod | qrd N]
//                   [--target=NAME]
//                   [--asm] [--budget SECONDS] [--optimize]
//                   [--eqsat-threads=N] [--mem-mb=N] [--fault=SPEC]
//                   [--eqsat-scheduler={simple,backoff}]
//                   [--eqsat-match-limit=N] [--eqsat-ban-length=N]
//                   [--cache-dir=DIR] [--memo-entries=N]
//                   [--trace FILE] [--trace-format {jsonl,chrome}]
//                   [--stats] [--report FILE] [--metrics FILE]
//                   [--metrics-interval SECONDS]
//
// --report=FILE writes the schema-versioned CompileReport JSON for
// the Isaria compile (see src/compiler/report.h; validated by
// tools/validate_report.py). --metrics=FILE publishes the always-on
// metrics registry as an OpenMetrics text page at exit — and every
// --metrics-interval seconds while running.
//
// --eqsat-threads=N runs every equality-saturation search phase on N
// worker threads (default: ISARIA_EQSAT_THREADS, else the hardware
// concurrency; 1 = sequential). The result is identical for any N —
// only compile time changes. Rule synthesis itself is parallelized
// the same way and is byte-identical at any thread count.
//
// --eqsat-scheduler=backoff enables egg-style rule backoff in every
// saturation: a rule whose matches exceed --eqsat-match-limit
// (default 1000) in one iteration is banned for --eqsat-ban-length
// iterations (default 5); both double per repeat offense. Keeps
// explosive associativity/commutativity rules from starving the
// directed lowering rules. Deterministic at any --eqsat-threads.
//
// --cache-dir=DIR persists synthesized rule sets under DIR keyed by
// a fingerprint of the ISA + synthesis configuration (defaults to
// $ISARIA_CACHE when set; empty = no caching). A warm cache makes
// compiler generation near-instant.
//
// --memo-entries=N enables the in-memory compile memo: up to N
// previously compiled programs are served from the memo instead of
// re-running equality saturation.
//
// --mem-mb=N caps the accounted e-graph footprint of every
// saturation at N MiB; a compile that hits the ceiling degrades to
// the best program found so far instead of failing.
//
// --fault=SPEC arms the deterministic fault-injection harness (same
// grammar as ISARIA_FAULT, e.g. --fault=shard-search:1). compile()
// absorbs every injected fault; the degradation path taken is
// printed after the cycle table.
//
// --optimize additionally runs the post-lowering machine passes
// (MAC fusion, DCE, dual-issue scheduling) on the Isaria output and
// reports the extra cycles they recover.
//
// --target=NAME compiles for that machine description (canonical
// name or alias, e.g. --target=rvv8): lane width, op set, cost
// model, and cycle timing all come from the description. Default:
// ISARIA_TARGET env, else fusion-g3-w4.
//
// With no arguments, explores a 4x4 convolution with a 3x3 filter.

#include <cstdio>
#include <cstring>
#include <string>

#include "baseline/diospyros.h"
#include "baseline/harness.h"
#include "baseline/slp.h"
#include "compiler/pipeline.h"
#include "compiler/report.h"
#include "isa/machine_desc.h"
#include "lower/lower.h"
#include "lower/optimize.h"
#include "obs/obs.h"
#include "support/fault.h"
#include "support/panic.h"
#include "support/signal.h"
#include "term/sexpr.h"

using namespace isaria;

int
main(int argc, char **argv)
{
    return guardedMain([&] {
    // Consumes --trace/--trace-format/--stats/--metrics/--report
    // before the kernel args.
    obs::ScopedTrace trace(obs::ObsOptions::parse(argc, argv));

    KernelSpec spec = KernelSpec::conv2d(4, 4, 3, 3);
    bool dumpAsm = false;
    bool optimize = false;
    double budget = 20;
    int eqsatThreads = 0; // 0 = auto (env / hardware concurrency)
    EqSatScheduler scheduler = EqSatScheduler::Simple;
    std::size_t schedMatchLimit = 0; // 0 = scheduler default
    std::size_t schedBanLength = 0;  // 0 = scheduler default
    std::size_t memLimitMb = 0; // 0 = unlimited
    RuleCache cache = RuleCache::fromEnv(); // $ISARIA_CACHE default
    std::size_t memoEntries = 0; // 0 = memo disabled
    MachineDesc machine = MachineDesc::fromEnv();

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto intAt = [&](int offset) { return std::atoi(argv[i + offset]); };
        if (arg == "conv" && i + 4 < argc) {
            spec = KernelSpec::conv2d(intAt(1), intAt(2), intAt(3),
                                      intAt(4));
            i += 4;
        } else if (arg == "matmul" && i + 3 < argc) {
            spec = KernelSpec::matmul(intAt(1), intAt(2), intAt(3));
            i += 3;
        } else if (arg == "qprod") {
            spec = KernelSpec::qprod();
        } else if (arg == "qrd" && i + 1 < argc) {
            spec = KernelSpec::qrd(intAt(1));
            i += 1;
        } else if (arg == "--asm") {
            dumpAsm = true;
        } else if (arg == "--optimize") {
            optimize = true;
        } else if (arg == "--budget" && i + 1 < argc) {
            budget = std::atof(argv[i + 1]);
            i += 1;
        } else if (arg.rfind("--eqsat-threads=", 0) == 0) {
            eqsatThreads = std::atoi(arg.c_str() + 16);
        } else if (arg == "--eqsat-threads" && i + 1 < argc) {
            eqsatThreads = std::atoi(argv[i + 1]);
            i += 1;
        } else if (arg.rfind("--eqsat-scheduler=", 0) == 0) {
            auto parsed = eqSatSchedulerFromName(arg.c_str() + 18);
            if (!parsed) {
                std::fprintf(stderr,
                             "bad --eqsat-scheduler (want simple or "
                             "backoff): %s\n",
                             arg.c_str() + 18);
                return 1;
            }
            scheduler = *parsed;
        } else if (arg.rfind("--eqsat-match-limit=", 0) == 0) {
            schedMatchLimit = static_cast<std::size_t>(
                std::atoll(arg.c_str() + 20));
        } else if (arg.rfind("--eqsat-ban-length=", 0) == 0) {
            schedBanLength = static_cast<std::size_t>(
                std::atoll(arg.c_str() + 19));
        } else if (arg.rfind("--mem-mb=", 0) == 0) {
            memLimitMb = static_cast<std::size_t>(
                std::atoll(arg.c_str() + 9));
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            cache = RuleCache(arg.substr(12));
        } else if (arg == "--cache-dir" && i + 1 < argc) {
            cache = RuleCache(argv[i + 1]);
            i += 1;
        } else if (arg.rfind("--memo-entries=", 0) == 0) {
            memoEntries = static_cast<std::size_t>(
                std::atoll(arg.c_str() + 15));
        } else if (arg.rfind("--target=", 0) == 0) {
            auto found = machineByName(arg.substr(9));
            if (!found) {
                std::fprintf(stderr,
                             "unknown --target %s (known: %s)\n",
                             arg.c_str() + 9,
                             knownMachineNames().c_str());
                return 1;
            }
            machine = *found;
        } else if (arg.rfind("--fault=", 0) == 0) {
            auto plan = FaultPlan::parse(arg.c_str() + 8);
            if (!plan.ok()) {
                std::fprintf(stderr, "bad --fault spec: %s\n",
                             plan.error().toString().c_str());
                return 1;
            }
            setFaultPlan(plan.value());
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return 1;
        }
    }

    KernelHarness h(spec, machine);
    std::printf("Kernel: %s (%d outputs, %zu-chunk program)\n",
                spec.label().c_str(), h.kernel().totalOutputs(),
                h.scalarProgram().root().children.size());
    std::printf("Target: %s (%d lanes)\n", machine.name().c_str(),
                machine.vectorWidth);

    IsaSpec isa(machine);
    std::printf("Generating the Isaria compiler (budget %.0fs%s)...\n",
                budget,
                cache.enabled() ? (", cache " + cache.dir()).c_str()
                                : "");
    SynthConfig synth = synthConfigFor(machine);
    synth.timeoutSeconds = budget;
    synth.numThreads = eqsatThreads;
    synth.derivLimits.numThreads = eqsatThreads;
    CompilerConfig compilerConfig = compilerConfigFor(machine);
    compilerConfig.withEqSatThreads(eqsatThreads);
    compilerConfig.withScheduler(scheduler, schedMatchLimit,
                                 schedBanLength);
    compilerConfig.withMemLimitBytes(memLimitMb * 1024 * 1024);
    compilerConfig.memoEntries = memoEntries;
    // Ctrl-C during a long exploration degrades the in-flight compile
    // to best-so-far instead of killing the run mid-saturation
    // (guardedMain has already routed SIGINT/SIGTERM to this token).
    compilerConfig.withCancellation(&processShutdownToken());
    GeneratedCompiler gen =
        generateCompiler(isa, cache, synth, compilerConfig);
    if (gen.synth.fromCache)
        std::printf("  (rule set served from the persistent cache)\n");
    if (gen.synth.hitDeadline)
        std::printf("  (the %.0fs budget cut synthesis short: the rule "
                    "set depends on the clock and was not cached)\n",
                    budget);
    IsariaCompiler dios = makeDiospyrosCompiler(compilerConfig);

    RunOutcome base = h.runScalarBaseline();
    RunOutcome slp = h.runSlp();
    RunOutcome nature = h.runNature();
    RunOutcome diosOut = h.runCompiler(dios);
    RunOutcome isariaOut = h.runCompiler(gen.compiler);

    auto row = [&](const char *label, const RunOutcome &out) {
        if (!out.supported) {
            std::printf("  %-22s %s\n", label, "(shape unsupported)");
            return;
        }
        std::printf("  %-22s %8llu cycles  %5.2fx  %s\n", label,
                    static_cast<unsigned long long>(out.cycles),
                    static_cast<double>(base.cycles) / out.cycles,
                    out.correct ? "ok" : "WRONG");
    };
    std::printf("\nCycle counts (speedup over scalar baseline):\n");
    row("scalar baseline", base);
    row("SLP auto-vectorizer", slp);
    row("Nature library", nature);
    row("Diospyros (hand rules)", diosOut);
    row("Isaria (generated)", isariaOut);
    std::printf("\nIsaria compile: %.1fs, %d EqSat calls, peak %zu "
                "e-nodes, abstract cost %llu -> %llu\n",
                isariaOut.compileStats.seconds,
                isariaOut.compileStats.eqsatCalls,
                isariaOut.compileStats.peakNodes,
                static_cast<unsigned long long>(
                    isariaOut.compileStats.initialCost),
                static_cast<unsigned long long>(
                    isariaOut.compileStats.finalCost));
    const CompileStats &ist = isariaOut.compileStats;
    if (ist.degradation != DegradeLevel::None) {
        std::printf("\nDegradation: %s (%d fault%s injected%s)\n",
                    degradeLevelName(ist.degradation),
                    ist.faultsInjected,
                    ist.faultsInjected == 1 ? "" : "s",
                    isariaOut.loweredScalarFallback
                        ? "; harness re-lowered the scalar program"
                        : "");
        for (const std::string &event : ist.degradeEvents)
            std::printf("  ! %s\n", event.c_str());
    }
    if (trace.options().stats)
        std::printf("\nPer-round compile breakdown:\n%s",
                    isariaOut.compileStats.toString().c_str());
    if (!trace.options().reportPath.empty()) {
        CompileReport report = makeCompileReport(
            spec.label(), isariaOut.compileStats, machine.name());
        if (writeCompileReport(trace.options().reportPath, report))
            std::printf("\nCompile report written: %s\n",
                        trace.options().reportPath.c_str());
    }

    if (optimize) {
        RecExpr compiled = gen.compiler.compile(h.scalarProgram());
        LowerOptions options;
        options.width = machine.vectorWidth;
        options.totalOutputs = h.kernel().totalOutputs();
        options.scalarizeRawChunks = true;
        VmProgram raw = lowerProgram(compiled, options);
        VmOptStats stats;
        VmProgram tuned = optimizeProgram(raw, machine.latency, &stats);
        RunOutcome before = h.runProgramChecked(raw);
        RunOutcome after = h.runProgramChecked(tuned);
        std::printf("\nPost-lowering passes: %llu -> %llu cycles "
                    "(%zu MACs fused, %zu dead, %zu moved; correct: "
                    "%s)\n",
                    static_cast<unsigned long long>(before.cycles),
                    static_cast<unsigned long long>(after.cycles),
                    stats.fusedMacs, stats.deadRemoved, stats.moved,
                    after.correct ? "yes" : "NO");
    }

    if (dumpAsm) {
        RecExpr compiled = gen.compiler.compile(h.scalarProgram());
        LowerOptions options;
        options.width = machine.vectorWidth;
        options.totalOutputs = h.kernel().totalOutputs();
        options.scalarizeRawChunks = true;
        std::printf("\nIsaria-generated DSP assembly:\n%s",
                    lowerProgram(compiled, options).toString().c_str());
    }
    return 0;
    });
}
