// CI smoke for the observability layer: one small Fig. 3 compile of
// a 3x3 2D convolution (Diospyros hand rules — no synthesis, so it
// runs in well under a second) plus a simulated execution, recorded
// through --trace. CTest runs this twice (JSONL and Chrome format)
// and validates the JSONL output against tools/trace_schema.json.
//
// Exits nonzero if the compile is wrong, the trace cannot be
// written, tracing recorded nothing, or the session dropped events.

#include <cstdint>
#include <cstdio>

#include "baseline/diospyros.h"
#include "baseline/harness.h"
#include "obs/obs.h"
#include "phase/phase.h"
#include "support/panic.h"

using namespace isaria;

int
main(int argc, char **argv)
{
    return guardedMain([&] {
    obs::ObsOptions opts = obs::ObsOptions::parse(argc, argv);
    if (!opts.enabled()) {
        std::fprintf(stderr,
                     "usage: trace_smoke --trace=FILE "
                     "[--trace-format={jsonl,chrome}] [--stats]\n");
        return 2;
    }
    obs::ScopedTrace trace(opts);

    // A phased compiler over the hand rules: the full Fig. 3 loop
    // (expansion/compilation rounds + pruning + final optimization),
    // so the trace carries spans per round, phase, and rule shard.
    CompilerConfig config;
    config.maxLoopIterations = 3;
    IsariaCompiler compiler(
        assignPhases(diospyrosHandRules(), config.costModel), config);
    KernelHarness harness(KernelSpec::conv2d(3, 3, 2, 2));
    RunOutcome outcome = harness.runCompiler(compiler);
    if (!outcome.supported || !outcome.correct) {
        std::fprintf(stderr, "trace_smoke: compile produced %s\n",
                     outcome.supported ? "a wrong result"
                                       : "no program");
        return 1;
    }

    std::size_t events = trace.session().drain().size();
    std::uint64_t dropped = trace.session().droppedEvents();
    if (!trace.finish())
        return 1;
    if (events == 0) {
        std::fprintf(stderr, "trace_smoke: no events recorded\n");
        return 1;
    }
    if (dropped != 0) {
        std::fprintf(stderr, "trace_smoke: %llu events dropped\n",
                     static_cast<unsigned long long>(dropped));
        return 1;
    }
    std::printf("trace_smoke ok: %llu cycles, %zu trace events\n",
                static_cast<unsigned long long>(outcome.cycles),
                events);
    return 0;
    });
}
