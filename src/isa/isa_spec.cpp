#include "isa/isa_spec.h"

#include "support/panic.h"

namespace isaria
{

IsaSpec::IsaSpec() : IsaSpec(MachineDesc::fromEnv()) {}

IsaSpec::IsaSpec(MachineDesc machine) : machine_(std::move(machine))
{
    ISARIA_ASSERT(machine_.vectorWidth >= 1, "bad vector width");

    scalarOps_ = {Op::Add, Op::Sub, Op::Mul, Op::Div,
                  Op::Neg, Op::Sgn, Op::Sqrt};
    vectorOps_ = {Op::VecAdd, Op::VecMinus, Op::VecMul, Op::VecDiv,
                  Op::VecNeg, Op::VecSgn,   Op::VecSqrt};
    if (machine_.enableVecMac)
        vectorOps_.push_back(Op::VecMAC);
    if (machine_.enableMulSub) {
        scalarOps_.push_back(Op::MulSub);
        vectorOps_.push_back(Op::VecMulSub);
    }
    if (machine_.enableSqrtSgn) {
        scalarOps_.push_back(Op::SqrtSgn);
        vectorOps_.push_back(Op::VecSqrtSgn);
    }
}

bool
IsaSpec::opEnabled(Op op) const
{
    switch (op) {
      case Op::MulSub:
      case Op::VecMulSub:
        return machine_.enableMulSub;
      case Op::SqrtSgn:
      case Op::VecSqrtSgn:
        return machine_.enableSqrtSgn;
      case Op::VecMAC:
        return machine_.enableVecMac;
      case Op::Wildcard:
        return false;
      default:
        return true;
    }
}

} // namespace isaria
