#include "vm/machine.h"

#include <array>
#include <cmath>
#include <string>

#include "obs/obs.h"
#include "support/panic.h"

namespace isaria
{

int
LatencyModel::latencyOf(VmOp op) const
{
    switch (op) {
      case VmOp::LoadScalar:
      case VmOp::LoadVec:
        return load;
      case VmOp::LoadConstS:
      case VmOp::LoadConstV:
        return loadConst;
      case VmOp::InsertLane:
      case VmOp::Splat:
        return insertLane;
      case VmOp::StoreScalar:
      case VmOp::StoreVec:
        return store;
      case VmOp::SAdd:
      case VmOp::SSub:
      case VmOp::SMul:
      case VmOp::SMulSub:
        return scalarAlu;
      case VmOp::SDiv:
        return scalarDiv;
      case VmOp::SSqrt:
      case VmOp::SSqrtSgn:
        return scalarSqrt;
      case VmOp::SSgn:
        return scalarSgn;
      case VmOp::SNeg:
        return scalarNeg;
      case VmOp::VAdd:
      case VmOp::VSub:
      case VmOp::VMul:
      case VmOp::VMac:
      case VmOp::VMulSub:
      case VmOp::VNeg:
      case VmOp::VSgn:
        return vectorAlu;
      case VmOp::VDiv:
        return vectorDiv;
      case VmOp::VSqrt:
      case VmOp::VSqrtSgn:
        return vectorSqrt;
    }
    return 1;
}

namespace
{

double
signOf(double x)
{
    return x > 0 ? 1.0 : x < 0 ? -1.0 : 0.0;
}

/** Functional + timing state of one run. */
struct Machine
{
    const VmProgram &program;
    const LatencyModel &latency;
    VmMemory memory;
    std::vector<double> sregs;
    std::vector<std::vector<double>> vregs;
    std::vector<std::uint64_t> sready;
    std::vector<std::uint64_t> vready;
    std::uint64_t computeFree = 0;
    std::uint64_t moveFree = 0;
    std::uint64_t lastWrite = 0;

    Machine(const VmProgram &p, const VmMemory &inputs,
            const LatencyModel &lat)
        : program(p), latency(lat), memory(inputs),
          sregs(p.numScalarRegs, 0.0),
          vregs(p.numVectorRegs, std::vector<double>(p.width, 0.0)),
          sready(p.numScalarRegs, 0), vready(p.numVectorRegs, 0)
    {}

    std::vector<double> &
    array(SymbolId sym, std::size_t needed)
    {
        auto &cells = memory[sym];
        if (cells.size() < needed)
            cells.resize(needed, 0.0);
        return cells;
    }

    void
    exec(const VmInst &inst)
    {
        const int w = program.width;
        // --- Timing: operands ready + slot availability.
        std::uint64_t ready = 0;
        auto sr = [&](std::int32_t r) {
            if (r >= 0)
                ready = std::max(ready, sready[r]);
        };
        auto vr = [&](std::int32_t r) {
            if (r >= 0)
                ready = std::max(ready, vready[r]);
        };
        bool scalarOperands = vmOpIsScalarCompute(inst.op) ||
                              inst.op == VmOp::StoreScalar ||
                              inst.op == VmOp::InsertLane ||
                              inst.op == VmOp::Splat;
        if (scalarOperands) {
            sr(inst.a);
            sr(inst.b);
            sr(inst.c);
        } else {
            vr(inst.a);
            vr(inst.b);
            vr(inst.c);
        }
        if (inst.op == VmOp::InsertLane)
            vr(inst.dst); // read-modify-write of the vector register

        // Issue shape: dual-issue machines give load/store/move ops
        // their own slot; single-issue machines funnel everything
        // through the compute cursor.
        std::uint64_t &slot =
            latency.dualIssue && vmOpIsMoveSlot(inst.op) ? moveFree
                                                         : computeFree;
        std::uint64_t issue = std::max(ready, slot);
        std::uint64_t done = issue + latency.latencyOf(inst.op);
        // The scalar FPU is not pipelined: it blocks its slot for the
        // whole operation. Vector and move units accept one op/cycle.
        slot = vmOpIsScalarCompute(inst.op) ? done : issue + 1;
        lastWrite = std::max(lastWrite, done);

        auto writeS = [&](double value) {
            sregs[inst.dst] = value;
            sready[inst.dst] = done;
        };
        auto writeV = [&](std::vector<double> value) {
            vregs[inst.dst] = std::move(value);
            vready[inst.dst] = done;
        };
        auto lanes = [&](std::int32_t r) -> const std::vector<double> & {
            return vregs[r];
        };

        // --- Functional semantics.
        switch (inst.op) {
          case VmOp::LoadScalar: {
            auto &cells = array(inst.arr, inst.imm + 1);
            writeS(cells[inst.imm]);
            break;
          }
          case VmOp::LoadConstS:
            writeS(inst.imms[0]);
            break;
          case VmOp::LoadVec: {
            auto &cells = array(inst.arr, inst.imm + w);
            writeV({cells.begin() + inst.imm,
                    cells.begin() + inst.imm + w});
            break;
          }
          case VmOp::LoadConstV:
            writeV(inst.imms);
            break;
          case VmOp::InsertLane: {
            std::vector<double> value = vregs[inst.dst];
            value[inst.imm] = sregs[inst.a];
            writeV(std::move(value));
            break;
          }
          case VmOp::Splat:
            writeV(std::vector<double>(w, sregs[inst.a]));
            break;
          case VmOp::StoreScalar: {
            auto &cells = array(inst.arr, inst.imm + 1);
            cells[inst.imm] = sregs[inst.a];
            break;
          }
          case VmOp::StoreVec: {
            auto &cells = array(inst.arr, inst.imm + w);
            for (int l = 0; l < w; ++l)
                cells[inst.imm + l] = vregs[inst.a][l];
            break;
          }

          case VmOp::SAdd: writeS(sregs[inst.a] + sregs[inst.b]); break;
          case VmOp::SSub: writeS(sregs[inst.a] - sregs[inst.b]); break;
          case VmOp::SMul: writeS(sregs[inst.a] * sregs[inst.b]); break;
          case VmOp::SDiv: writeS(sregs[inst.a] / sregs[inst.b]); break;
          case VmOp::SNeg: writeS(-sregs[inst.a]); break;
          case VmOp::SSgn: writeS(signOf(sregs[inst.a])); break;
          case VmOp::SSqrt: writeS(std::sqrt(sregs[inst.a])); break;
          case VmOp::SMulSub:
            writeS(sregs[inst.a] - sregs[inst.b] * sregs[inst.c]);
            break;
          case VmOp::SSqrtSgn:
            writeS(std::sqrt(sregs[inst.a]) * signOf(-sregs[inst.b]));
            break;

          case VmOp::VAdd:
          case VmOp::VSub:
          case VmOp::VMul:
          case VmOp::VDiv: {
            std::vector<double> out(w);
            const auto &x = lanes(inst.a);
            const auto &y = lanes(inst.b);
            for (int l = 0; l < w; ++l) {
                switch (inst.op) {
                  case VmOp::VAdd: out[l] = x[l] + y[l]; break;
                  case VmOp::VSub: out[l] = x[l] - y[l]; break;
                  case VmOp::VMul: out[l] = x[l] * y[l]; break;
                  default: out[l] = x[l] / y[l]; break;
                }
            }
            writeV(std::move(out));
            break;
          }
          case VmOp::VNeg:
          case VmOp::VSgn:
          case VmOp::VSqrt: {
            std::vector<double> out(w);
            const auto &x = lanes(inst.a);
            for (int l = 0; l < w; ++l) {
                out[l] = inst.op == VmOp::VNeg    ? -x[l]
                         : inst.op == VmOp::VSgn ? signOf(x[l])
                                                 : std::sqrt(x[l]);
            }
            writeV(std::move(out));
            break;
          }
          case VmOp::VMac:
          case VmOp::VMulSub: {
            std::vector<double> out(w);
            const auto &acc = lanes(inst.a);
            const auto &x = lanes(inst.b);
            const auto &y = lanes(inst.c);
            for (int l = 0; l < w; ++l) {
                double prod = x[l] * y[l];
                out[l] = inst.op == VmOp::VMac ? acc[l] + prod
                                               : acc[l] - prod;
            }
            writeV(std::move(out));
            break;
          }
          case VmOp::VSqrtSgn: {
            std::vector<double> out(w);
            const auto &x = lanes(inst.a);
            const auto &y = lanes(inst.b);
            for (int l = 0; l < w; ++l)
                out[l] = std::sqrt(x[l]) * signOf(-y[l]);
            writeV(std::move(out));
            break;
          }
        }
    }
};

/** Always-on issue statistics of simulated runs (see obs/metrics.h):
 *  instructions per opcode ("vm/op/<name>") and per issue slot. */
struct VmMetrics
{
    std::array<obs::CounterHandle, kNumVmOps> ops;
    obs::CounterHandle moveSlot = obs::metricCounter("vm/slot/move");
    obs::CounterHandle computeSlot =
        obs::metricCounter("vm/slot/compute");

    VmMetrics()
    {
        for (std::size_t op = 0; op < kNumVmOps; ++op)
            ops[op] = obs::metricCounter(
                (std::string("vm/op/") + vmOpName(static_cast<VmOp>(op)))
                    .c_str());
    }
};

} // namespace

VmRunResult
runProgram(const VmProgram &program, const VmMemory &inputs,
           const LatencyModel &latency)
{
    obs::Span span("vm/run",
                   static_cast<std::int64_t>(program.code.size()));
    ISARIA_ASSERT(program.width >= 1,
                  "VmProgram.width unset: the builder must derive it "
                  "from the machine description");
    Machine machine(program, inputs, latency);
    for (const VmInst &inst : program.code)
        machine.exec(inst);
    VmRunResult out;
    out.memory = std::move(machine.memory);
    out.cycles = machine.lastWrite;
    out.instructions = program.code.size();

    // Opcode and issue-slot counts, aggregated outside the exec loop
    // so the registry never touches the cycle-accounting hot path.
    static const VmMetrics vm;
    std::array<std::uint64_t, kNumVmOps> opCounts{};
    for (const VmInst &inst : program.code)
        ++opCounts[static_cast<std::size_t>(inst.op)];
    std::uint64_t moveSlot = 0;
    for (std::size_t op = 0; op < kNumVmOps; ++op) {
        if (opCounts[op] == 0)
            continue;
        obs::metricAdd(vm.ops[op], opCounts[op]);
        if (vmOpIsMoveSlot(static_cast<VmOp>(op)))
            moveSlot += opCounts[op];
    }
    if (moveSlot)
        obs::metricAdd(vm.moveSlot, moveSlot);
    if (out.instructions > moveSlot)
        obs::metricAdd(vm.computeSlot, out.instructions - moveSlot);
    return out;
}

} // namespace isaria
