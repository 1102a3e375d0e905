// Tests of the benchmark's output checks (check.h): the checks accept
// what the library's scalar program computes, and reject swapped
// outputs, one value off by 1e-3, and an R with a nonzero entry below
// the diagonal.
//
//   cmake --build .bench_build/perfbench --target check_test
//   .bench_build/perfbench/check_test

#include <cmath>
#include <cstdio>
#include <utility>

#include "check.h"
#include "isa/machine_desc.h"
#include "lower/lower.h"

using namespace isaria;
using perfbench::checkOutputs;
using perfbench::expectedOutputs;
using perfbench::makeInputs;

namespace
{

int failures = 0;

#define CHECK(cond)                                                         \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                         __LINE__, #cond);                                  \
            ++failures;                                                     \
        }                                                                   \
    } while (0)

/** Outputs of the library's scalar lowering of @p spec, run on the VM. */
std::vector<double>
scalarOutputs(const KernelSpec &spec, const VmMemory &inputs)
{
    MachineDesc machine = MachineDesc::fusionG3();
    Kernel kernel = spec.build();
    LowerOptions options;
    options.width = machine.vectorWidth;
    options.scalarOnly = true;
    options.totalOutputs = kernel.totalOutputs();
    VmProgram program =
        lowerProgram(liftKernel(kernel, machine.vectorWidth), options);
    return runProgram(program, inputs, machine.latency)
        .memory.at(outputArraySymbol());
}

struct Case
{
    KernelSpec spec;
    VmMemory inputs;
    std::vector<double> expected;
    std::vector<double> produced;
};

Case
makeCase(const KernelSpec &spec, std::uint64_t seed)
{
    Case c{spec, makeInputs(spec.build(), seed), {}, {}};
    c.expected = expectedOutputs(spec, c.inputs);
    c.produced = scalarOutputs(spec, c.inputs);
    return c;
}

bool
accepts(const Case &c, const std::vector<double> &produced)
{
    return checkOutputs(c.spec, c.inputs, c.expected, produced).ok;
}

void
testValueKernels()
{
    for (const KernelSpec &spec :
         {KernelSpec::conv2d(3, 3, 2, 2), KernelSpec::matmul(2, 3, 2),
          KernelSpec::qprod()}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            Case c = makeCase(spec, seed);
            CHECK(accepts(c, c.produced));

            std::vector<double> swapped = c.produced;
            CHECK(swapped[0] != swapped[1]);
            std::swap(swapped[0], swapped[1]);
            CHECK(!accepts(c, swapped));

            for (std::size_t i = 0; i < c.expected.size(); ++i) {
                std::vector<double> off = c.produced;
                off[i] += 1e-3;
                CHECK(!accepts(c, off));
            }
            CHECK(!accepts(c, std::vector<double>(c.produced.begin(),
                                                  c.produced.begin() + 1)));
        }
    }
}

void
testQrProperties()
{
    const int n = 3;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Case c = makeCase(KernelSpec::qrd(n), seed);
        CHECK(accepts(c, c.produced));

        // Q and R swapped.
        std::vector<double> swapped = c.produced;
        std::swap_ranges(swapped.begin(), swapped.begin() + n * n,
                         swapped.begin() + n * n);
        CHECK(!accepts(c, swapped));

        // Any one value of Q or R off by 1e-3.
        for (int i = 0; i < 2 * n * n; ++i) {
            std::vector<double> off = c.produced;
            off[i] += 1e-3;
            CHECK(!accepts(c, off));
        }

        // A Givens rotation keeps Q*R = A and Q^T*Q = I but puts a
        // nonzero entry below R's diagonal: only the triangularity
        // check can reject it.
        const double cs = std::cos(0.3), sn = std::sin(0.3);
        std::vector<double> rotated = c.produced;
        auto q = [&](int i, int j) -> double & { return rotated[i * n + j]; };
        auto r = [&](int i, int j) -> double & {
            return rotated[n * n + i * n + j];
        };
        for (int i = 0; i < n; ++i) {
            double q0 = q(i, 0), q1 = q(i, 1);
            q(i, 0) = cs * q0 + sn * q1;
            q(i, 1) = -sn * q0 + cs * q1;
        }
        for (int j = 0; j < n; ++j) {
            double r0 = r(0, j), r1 = r(1, j);
            r(0, j) = cs * r0 + sn * r1;
            r(1, j) = -sn * r0 + cs * r1;
        }
        perfbench::Verdict v =
            checkOutputs(c.spec, c.inputs, c.expected, rotated);
        CHECK(!v.ok);
        CHECK(v.why == "R is nonzero below the diagonal");
    }
}

void
testInputsFollowTheSeed()
{
    Kernel kernel = KernelSpec::matmul(3, 3, 3).build();
    SymbolId a = internSymbol("A");
    CHECK(makeInputs(kernel, 7).at(a) == makeInputs(kernel, 7).at(a));
    CHECK(makeInputs(kernel, 7).at(a) != makeInputs(kernel, 8).at(a));
    VmMemory inputs = makeInputs(kernel, 9);
    for (double v : inputs.at(a))
        CHECK(std::fabs(v) >= 0.25 && std::fabs(v) <= 2.0);
}

} // namespace

int
main()
{
    testValueKernels();
    testQrProperties();
    testInputsFollowTheSeed();
    if (failures) {
        std::fprintf(stderr, "check_test: %d check(s) failed\n", failures);
        return 1;
    }
    std::printf("check_test: all checks passed\n");
    return 0;
}
