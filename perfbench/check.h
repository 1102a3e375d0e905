#ifndef PERFBENCH_CHECK_H
#define PERFBENCH_CHECK_H

/**
 * @file
 * Seeded kernel inputs and the benchmark's own output checks.
 *
 * Expected outputs are computed here, not by the library: full 2D
 * convolution and the matrix product by direct loops, QProd by the
 * Hamilton product. QrD has no single expected output, so its check
 * tests the properties every QR factorisation A = QR has: Q·R = A,
 * QᵀQ = I, and R zero below the diagonal.
 */

#include <string>
#include <vector>

#include "baseline/harness.h"
#include "vm/machine.h"

namespace perfbench
{

/** Largest error an output value may carry, relative to
 *  max(1, |expected|) (for QrD: to max(1, max |A|)). The kernels sum
 *  at most a few dozen products of values in [-2, 2], so rounding
 *  stays below 1e-13; 1e-9 still rejects any real miscompile. */
inline constexpr double kTolerance = 1e-9;

/** Inputs for every input array of @p kernel, drawn from @p seed:
 *  values in [-2, -0.25] U [0.25, 2], bounded away from zero so QR's
 *  pivots stay well conditioned. */
isaria::VmMemory makeInputs(const isaria::Kernel &kernel,
                            std::uint64_t seed);

/** The expected outputs of @p spec on @p inputs, in output order;
 *  empty for QrD (see checkOutputs). */
std::vector<double> expectedOutputs(const isaria::KernelSpec &spec,
                                    const isaria::VmMemory &inputs);

/** Outcome of one check. */
struct Verdict
{
    bool ok = false;
    /** Largest error found, in units of the tolerance's scale. */
    double maxError = 0;
    /** Which check failed; empty when ok. */
    std::string why;
};

/**
 * Checks @p produced (the program's output array, padding lanes
 * allowed after the real outputs) for @p spec on @p inputs.
 * @p expected is expectedOutputs(spec, inputs), passed in so a run
 * computes it once per kernel.
 */
Verdict checkOutputs(const isaria::KernelSpec &spec,
                     const isaria::VmMemory &inputs,
                     const std::vector<double> &expected,
                     const std::vector<double> &produced);

} // namespace perfbench

#endif // PERFBENCH_CHECK_H
