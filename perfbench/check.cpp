#include "check.h"

#include <algorithm>
#include <cmath>

#include "common.h"
#include "support/interner.h"
#include "support/rng.h"

namespace perfbench
{

using isaria::KernelSpec;
using isaria::VmMemory;

namespace
{

const std::vector<double> &
array(const VmMemory &inputs, const char *name)
{
    return inputs.at(isaria::internSymbol(name));
}

/** Uniform in [0, 1). */
double
unitInterval(isaria::Rng &rng)
{
    return static_cast<double>(rng.next() >> 11) * 0x1p-53;
}

std::vector<double>
conv2d(const KernelSpec &s, const VmMemory &inputs)
{
    const std::vector<double> &in = array(inputs, "I");
    const std::vector<double> &filter = array(inputs, "F");
    int rows = s.p0, cols = s.p1, krows = s.p2, kcols = s.p3;
    int orows = rows + krows - 1, ocols = cols + kcols - 1;
    std::vector<double> out(static_cast<std::size_t>(orows * ocols), 0);
    for (int y = 0; y < orows; ++y) {
        for (int x = 0; x < ocols; ++x) {
            double sum = 0;
            for (int i = 0; i < krows; ++i) {
                for (int j = 0; j < kcols; ++j) {
                    int r = y - i, c = x - j;
                    if (r >= 0 && r < rows && c >= 0 && c < cols)
                        sum += in[r * cols + c] * filter[i * kcols + j];
                }
            }
            out[y * ocols + x] = sum;
        }
    }
    return out;
}

std::vector<double>
matmul(const KernelSpec &s, const VmMemory &inputs)
{
    const std::vector<double> &a = array(inputs, "A");
    const std::vector<double> &b = array(inputs, "B");
    int n = s.p0, m = s.p1, k = s.p2;
    std::vector<double> out(static_cast<std::size_t>(n * k), 0);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < k; ++j) {
            double sum = 0;
            for (int l = 0; l < m; ++l)
                sum += a[i * m + l] * b[l * k + j];
            out[i * k + j] = sum;
        }
    }
    return out;
}

std::vector<double>
hamilton(const VmMemory &inputs)
{
    const std::vector<double> &p = array(inputs, "P");
    const std::vector<double> &q = array(inputs, "Q");
    return {
        p[0] * q[0] - p[1] * q[1] - p[2] * q[2] - p[3] * q[3],
        p[0] * q[1] + p[1] * q[0] + p[2] * q[3] - p[3] * q[2],
        p[0] * q[2] - p[1] * q[3] + p[2] * q[0] + p[3] * q[1],
        p[0] * q[3] + p[1] * q[2] - p[2] * q[1] + p[3] * q[0],
    };
}

/** Q·R = A, QᵀQ = I and R upper triangular, for Q then R (row-major
 *  n x n each) at the front of @p produced. */
Verdict
checkQr(int n, const VmMemory &inputs, const std::vector<double> &produced)
{
    const std::vector<double> &a = array(inputs, "A");
    auto q = [&](int i, int j) { return produced[i * n + j]; };
    auto r = [&](int i, int j) { return produced[n * n + i * n + j]; };
    double scale = 1;
    for (double v : a)
        scale = std::max(scale, std::fabs(v));

    Verdict v;
    auto note = [&](double error, const char *what) {
        error /= scale;
        if (!(error <= kTolerance) && v.why.empty())
            v.why = what;
        v.maxError = std::max(v.maxError, std::isnan(error) ? 1e300 : error);
    };
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            double qr = 0, qtq = 0;
            for (int l = 0; l < n; ++l) {
                qr += q(i, l) * r(l, j);
                qtq += q(l, i) * q(l, j);
            }
            note(std::fabs(qr - a[i * n + j]), "Q*R differs from A");
            note(std::fabs(qtq - (i == j ? 1.0 : 0.0)),
                 "Q^T*Q differs from I");
            if (i > j)
                note(std::fabs(r(i, j)), "R is nonzero below the diagonal");
        }
    }
    v.ok = v.why.empty();
    return v;
}

} // namespace

VmMemory
makeInputs(const isaria::Kernel &kernel, std::uint64_t seed)
{
    isaria::Rng rng(seed);
    VmMemory inputs;
    for (const auto &[name, size] : kernel.inputs) {
        std::vector<double> cells(static_cast<std::size_t>(size));
        for (double &cell : cells) {
            double magnitude = 0.25 + 1.75 * unitInterval(rng);
            cell = rng.nextBelow(2) ? magnitude : -magnitude;
        }
        inputs[isaria::internSymbol(name)] = std::move(cells);
    }
    return inputs;
}

std::vector<double>
expectedOutputs(const KernelSpec &spec, const VmMemory &inputs)
{
    switch (spec.family) {
      case KernelSpec::Family::Conv2D: return conv2d(spec, inputs);
      case KernelSpec::Family::MatMul: return matmul(spec, inputs);
      case KernelSpec::Family::QProd: return hamilton(inputs);
      case KernelSpec::Family::QrD: return {};
    }
    return {};
}

Verdict
checkOutputs(const KernelSpec &spec, const VmMemory &inputs,
             const std::vector<double> &expected,
             const std::vector<double> &produced)
{
    if (spec.family == KernelSpec::Family::QrD) {
        if (produced.size() < static_cast<std::size_t>(2 * spec.p0 * spec.p0))
            return Verdict{false, 0, "fewer outputs than Q and R hold"};
        return checkQr(spec.p0, inputs, produced);
    }
    if (produced.size() < expected.size())
        return Verdict{false, 0, "fewer outputs than the kernel has"};
    Verdict v;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        double error = std::fabs(produced[i] - expected[i]) /
                       std::max(1.0, std::fabs(expected[i]));
        if (!(error <= kTolerance) && v.why.empty())
            v.why = "output " + std::to_string(i) + " is " +
                    std::to_string(produced[i]) + ", expected " +
                    std::to_string(expected[i]);
        v.maxError = std::max(v.maxError, std::isnan(error) ? 1e300 : error);
    }
    v.ok = v.why.empty();
    return v;
}

} // namespace perfbench
