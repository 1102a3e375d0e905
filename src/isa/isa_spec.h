#ifndef ISARIA_ISA_ISA_SPEC_H
#define ISARIA_ISA_ISA_SPEC_H

/**
 * @file
 * The target instruction set, as a view over one MachineDesc.
 *
 * An IsaSpec is what rule synthesis and the offline pipeline consume:
 * the enabled op lists, the lane width, and the target name — all
 * derived from a machine description (machine_desc.h), never from
 * parallel hardcoded defaults. The Section 5.4 customization is a
 * machine too: MachineDesc::fusionG3(mulSub, sqrtSgn) flips a custom
 * instruction on (a few lines of interpreter and cost model in the
 * paper), and re-running the offline pipeline gives a new compiler.
 */

#include <string>
#include <vector>

#include "isa/machine_desc.h"
#include "term/op.h"

namespace isaria
{

/** An instruction set instance: enabled ops + width, from a machine
 *  description. */
class IsaSpec
{
  public:
    /** The session default target (MachineDesc::fromEnv). */
    IsaSpec();
    /** Any target. */
    explicit IsaSpec(MachineDesc machine);

    /** The full machine description this spec was built from. */
    const MachineDesc &machine() const { return machine_; }
    int vectorWidth() const { return machine_.vectorWidth; }

    /** True if @p op exists on this target. */
    bool opEnabled(Op op) const;

    /** Scalar arithmetic ops available to rule synthesis. */
    const std::vector<Op> &scalarOps() const { return scalarOps_; }

    /** Lane-wise vector ops available to rule synthesis. */
    const std::vector<Op> &vectorOps() const { return vectorOps_; }

    /** Canonical target name, e.g. "fusion-g3-w4+mulsub" — always
     *  width-bearing (MachineDesc::name). */
    std::string name() const { return machine_.name(); }

  private:
    MachineDesc machine_;
    std::vector<Op> scalarOps_;
    std::vector<Op> vectorOps_;
};

} // namespace isaria

#endif // ISARIA_ISA_ISA_SPEC_H
