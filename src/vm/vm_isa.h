#ifndef ISARIA_VM_VM_ISA_H
#define ISARIA_VM_VM_ISA_H

/**
 * @file
 * The virtual DSP instruction set executed by the cycle simulator.
 *
 * This models an embedded DSP with a scalar floating-point path, a
 * W-wide SIMD unit, and explicit data movement between them; the lane
 * width W, latencies, and issue shape all come from the machine
 * description (isa/machine_desc.h). Code is straight-line (kernels
 * are fully unrolled by the front-end, exactly as in the paper) over
 * an unbounded virtual register file; the cycle model charges issue
 * slots and latencies, not register pressure.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/interner.h"

namespace isaria
{

/** Opcodes of the virtual DSP. */
enum class VmOp : std::uint8_t
{
    // Load/store/move slot.
    LoadScalar, ///< f[dst] = mem[arr][imm]
    LoadConstS, ///< f[dst] = imms[0]
    LoadVec,    ///< v[dst] = mem[arr][imm .. imm+W-1]
    LoadConstV, ///< v[dst] = imms[0..W-1]
    InsertLane, ///< v[dst][laneOf(imm)] = f[a]
    Splat,      ///< v[dst] = broadcast f[a] to every lane
    StoreScalar, ///< mem[arr][imm] = f[a]
    StoreVec,   ///< mem[arr][imm ..] = v[a]

    // Scalar compute slot.
    SAdd, SSub, SMul, SDiv, SNeg, SSgn, SSqrt,
    SMulSub,  ///< f[dst] = f[a] - f[b]*f[c]
    SSqrtSgn, ///< f[dst] = sqrt(f[a]) * sign(-f[b])

    // Vector compute slot.
    VAdd, VSub, VMul, VDiv, VNeg, VSgn, VSqrt,
    VMac,     ///< v[dst] = v[a] + v[b]*v[c]
    VMulSub,  ///< v[dst] = v[a] - v[b]*v[c]
    VSqrtSgn, ///< lane-wise sqrt(a)*sign(-b)
};

/** Number of opcodes; VSqrtSgn must stay the last enumerator. */
inline constexpr std::size_t kNumVmOps =
    static_cast<std::size_t>(VmOp::VSqrtSgn) + 1;

/** True for vector-register-producing/consuming compute ops. */
bool vmOpIsVectorCompute(VmOp op);
/** True for scalar compute ops. */
bool vmOpIsScalarCompute(VmOp op);
/** True for ops issued on the load/store/move slot. */
bool vmOpIsMoveSlot(VmOp op);

const char *vmOpName(VmOp op);

/** One instruction; unused fields are -1/0. */
struct VmInst
{
    VmOp op;
    std::int32_t dst = -1;
    std::int32_t a = -1;
    std::int32_t b = -1;
    std::int32_t c = -1;
    SymbolId arr = 0;
    std::int32_t imm = 0;
    std::vector<double> imms;
};

/** A straight-line program for the virtual DSP. */
struct VmProgram
{
    std::vector<VmInst> code;
    std::int32_t numScalarRegs = 0;
    std::int32_t numVectorRegs = 0;
    /** Lane width, derived from the machine description by whoever
     *  builds the program. 0 = unset; runProgram() rejects it, so a
     *  builder that forgets fails loudly instead of silently running
     *  at a default width. */
    int width = 0;

    std::string toString() const;

    /** Instruction counts by slot, for reports. */
    std::size_t countVectorCompute() const;
    std::size_t countScalarCompute() const;
};

} // namespace isaria

#endif // ISARIA_VM_VM_ISA_H
