// ISA customization walkthrough (Section 5.4): a DSP engineer wants
// to know whether adding VecSqrtSgn — sqrt(a) * sign(-b), the
// Householder-alpha pattern — and VecMulSub would speed up QR
// decomposition. With Isaria the experiment is: flip two flags in the
// ISA configuration, regenerate the compiler, recompile, measure. No
// compiler rules are written by hand.

#include <cstdio>

#include "baseline/harness.h"
#include "compiler/pipeline.h"
#include "support/panic.h"

using namespace isaria;

namespace
{

struct Variant
{
    const char *label;
    MachineDesc machine;
};

} // namespace

int
main()
{
    return guardedMain([&] {
    KernelHarness harness(KernelSpec::qrd(4));
    RunOutcome scalar = harness.runScalarBaseline();
    std::printf("QR decomposition 4x4, unvectorized baseline: %llu "
                "cycles\n\n",
                static_cast<unsigned long long>(scalar.cycles));

    Variant variants[4] = {
        {"base ISA", MachineDesc::fusionG3()},
        {"+ VecMulSub", MachineDesc::fusionG3(/*mulSub=*/true)},
        {"+ VecSqrtSgn", MachineDesc::fusionG3(false, /*sqrtSgn=*/true)},
        {"+ both", MachineDesc::fusionG3(true, true)}};

    SynthConfig synth;
    synth.timeoutSeconds = 20;

    std::uint64_t baseCycles = 0;
    for (const Variant &variant : variants) {
        IsaSpec isa(variant.machine);
        std::printf("[%s] regenerating the compiler...\n",
                    isa.name().c_str());
        GeneratedCompiler gen = generateCompiler(isa, synth);
        RunOutcome out = harness.runCompiler(gen.compiler);
        if (baseCycles == 0)
            baseCycles = out.cycles;
        double speedup =
            100.0 * (static_cast<double>(baseCycles) / out.cycles - 1.0);
        std::printf("  %-14s %7llu cycles  %+5.1f%% vs base ISA  "
                    "(correct: %s, %zu rules)\n\n",
                    variant.label,
                    static_cast<unsigned long long>(out.cycles), speedup,
                    out.correct ? "yes" : "NO",
                    gen.phased.all.size());
    }

    std::printf("The paper's Table 2 reports the same experiment on "
                "real Tensilica tooling: ~0.5%% for VecMulSub,\n~1.7%% "
                "for VecSqrtSgn, ~2%% combined — small wins discovered "
                "in an afternoon instead of a compiler-\nengineering "
                "project.\n");
    return 0;
    });
}
