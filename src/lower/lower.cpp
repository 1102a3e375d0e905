#include "lower/lower.h"

#include <map>
#include <unordered_map>

#include "obs/obs.h"
#include "support/panic.h"

namespace isaria
{

SymbolId
outputArraySymbol()
{
    static SymbolId sym = internSymbol("__out");
    return sym;
}

namespace
{

class Lowerer
{
  public:
    Lowerer(const RecExpr &program, const LowerOptions &options)
        : expr_(program), options_(options)
    {
        out_.width = options.width;
    }

    VmProgram
    run()
    {
        const TermNode &root = expr_.root();
        if (root.op != Op::List)
            ISARIA_FATAL("program root must be List");
        int offset = 0;
        for (NodeId chunk : root.children) {
            bool scalarize =
                options_.scalarOnly ||
                (options_.scalarizeRawChunks && isGatherVec(chunk));
            if (scalarize)
                storeChunkScalar(chunk, offset);
            else
                emit(VmInst{VmOp::StoreVec, -1, lowerVector(chunk), -1, -1,
                            outputArraySymbol(), offset, {}});
            offset += options_.width;
        }
        out_.numScalarRegs = nextScalar_;
        out_.numVectorRegs = nextVector_;
        return std::move(out_);
    }

  private:
    void
    emit(VmInst inst)
    {
        out_.code.push_back(std::move(inst));
    }

    /**
     * Emits one instruction through the value-numbering table: if an
     * identical computation (same opcode and operands) was emitted
     * before, its register is reused and nothing is emitted. This is
     * the CSE pass a production back-end would run, and it makes
     * lowering insensitive to how much sharing the term has.
     */
    std::int32_t
    emitNumbered(VmInst inst, bool vector)
    {
        std::vector<std::int64_t> key = {
            static_cast<std::int64_t>(inst.op), inst.a, inst.b, inst.c,
            static_cast<std::int64_t>(inst.arr), inst.imm};
        for (double imm : inst.imms) {
            std::int64_t bits;
            static_assert(sizeof(bits) == sizeof(imm));
            __builtin_memcpy(&bits, &imm, sizeof(bits));
            key.push_back(bits);
        }
        if (options_.valueNumbering) {
            auto it = valueNumbers_.find(key);
            if (it != valueNumbers_.end())
                return it->second;
        }
        std::int32_t dst = vector ? nextVector_++ : nextScalar_++;
        inst.dst = dst;
        emit(std::move(inst));
        if (options_.valueNumbering)
            valueNumbers_.emplace(std::move(key), dst);
        return dst;
    }

    std::int32_t
    lowerScalar(NodeId id)
    {
        auto it = scalarMemo_.find(id);
        if (it != scalarMemo_.end())
            return it->second;
        const TermNode &n = expr_.node(id);
        std::int32_t dst = -1;
        switch (n.op) {
          case Op::Const:
            dst = emitNumbered(
                VmInst{VmOp::LoadConstS, -1, -1, -1, -1, 0, 0,
                       {static_cast<double>(n.payload)}},
                false);
            break;
          case Op::Get:
            dst = emitNumbered(
                VmInst{VmOp::LoadScalar, -1, -1, -1, -1,
                       getArray(n.payload), getIndex(n.payload), {}},
                false);
            break;
          case Op::Symbol:
            dst = emitNumbered(
                VmInst{VmOp::LoadScalar, -1, -1, -1, -1,
                       static_cast<SymbolId>(n.payload), 0, {}},
                false);
            break;
          case Op::Add:
          case Op::Sub:
          case Op::Mul:
          case Op::Div: {
            std::int32_t a = lowerScalar(n.children[0]);
            std::int32_t b = lowerScalar(n.children[1]);
            VmOp op = n.op == Op::Add   ? VmOp::SAdd
                      : n.op == Op::Sub ? VmOp::SSub
                      : n.op == Op::Mul ? VmOp::SMul
                                        : VmOp::SDiv;
            dst = emitNumbered(VmInst{op, -1, a, b, -1, 0, 0, {}}, false);
            break;
          }
          case Op::Neg:
          case Op::Sgn:
          case Op::Sqrt: {
            std::int32_t a = lowerScalar(n.children[0]);
            VmOp op = n.op == Op::Neg   ? VmOp::SNeg
                      : n.op == Op::Sgn ? VmOp::SSgn
                                        : VmOp::SSqrt;
            dst = emitNumbered(VmInst{op, -1, a, -1, -1, 0, 0, {}},
                               false);
            break;
          }
          case Op::MulSub: {
            std::int32_t acc = lowerScalar(n.children[0]);
            std::int32_t a = lowerScalar(n.children[1]);
            std::int32_t b = lowerScalar(n.children[2]);
            dst = emitNumbered(
                VmInst{VmOp::SMulSub, -1, acc, a, b, 0, 0, {}}, false);
            break;
          }
          case Op::SqrtSgn: {
            std::int32_t a = lowerScalar(n.children[0]);
            std::int32_t b = lowerScalar(n.children[1]);
            dst = emitNumbered(
                VmInst{VmOp::SSqrtSgn, -1, a, b, -1, 0, 0, {}}, false);
            break;
          }
          default:
            ISARIA_FATAL("scalar lowering hit a non-scalar op");
        }
        scalarMemo_.emplace(id, dst);
        return dst;
    }

    /**
     * True for a raw Vec literal that would cost per-lane moves —
     * i.e. not a contiguous load, constant load, or splat.
     */
    bool
    isGatherVec(NodeId id) const
    {
        const TermNode &n = expr_.node(id);
        if (n.op != Op::Vec)
            return false;
        SymbolId arr;
        std::int32_t base;
        if (isContiguousLoad(n, arr, base))
            return false;
        bool allConst = true;
        bool allSame = true;
        for (NodeId child : n.children) {
            allConst &= expr_.node(child).op == Op::Const;
            allSame &= child == n.children[0];
        }
        return !allConst && !allSame;
    }

    /** True if the Vec node is a contiguous slice of one array. */
    bool
    isContiguousLoad(const TermNode &vec, SymbolId &arr,
                     std::int32_t &base) const
    {
        const TermNode &first = expr_.node(vec.children[0]);
        if (first.op != Op::Get)
            return false;
        arr = getArray(first.payload);
        base = getIndex(first.payload);
        for (std::size_t l = 0; l < vec.children.size(); ++l) {
            const TermNode &lane = expr_.node(vec.children[l]);
            if (lane.op != Op::Get || getArray(lane.payload) != arr ||
                getIndex(lane.payload) != base + static_cast<int>(l)) {
                return false;
            }
        }
        return true;
    }

    std::int32_t
    lowerVec(const TermNode &n)
    {
        ISARIA_ASSERT(static_cast<int>(n.children.size()) ==
                          options_.width,
                      "Vec width mismatch at lowering");

        SymbolId arr;
        std::int32_t base;
        if (isContiguousLoad(n, arr, base)) {
            return emitNumbered(
                VmInst{VmOp::LoadVec, -1, -1, -1, -1, arr, base, {}},
                true);
        }

        // All lanes the same (non-constant) value: a broadcast.
        bool allSame = true;
        for (NodeId child : n.children)
            allSame &= expr_.node(child) == expr_.node(n.children[0]);
        if (allSame && expr_.node(n.children[0]).op != Op::Const &&
            expr_.node(n.children[0]).children.empty()) {
            std::int32_t s = lowerScalar(n.children[0]);
            return emitNumbered(
                VmInst{VmOp::Splat, -1, s, -1, -1, 0, 0, {}}, true);
        }

        // Constant lanes ride along in one LoadConstV; computed lanes
        // are inserted one by one — the lane-move cost the abstract
        // model charges. Lane inserts are read-modify-write, so they
        // bypass value numbering; a structurally identical gather is
        // instead deduplicated via the gather memo.
        std::vector<std::int64_t> gatherKey{-42};
        std::vector<double> constLanes(options_.width, 0.0);
        std::vector<std::pair<int, std::int32_t>> computed;
        for (int l = 0; l < options_.width; ++l) {
            const TermNode &lane = expr_.node(n.children[l]);
            if (lane.op == Op::Const) {
                constLanes[l] = static_cast<double>(lane.payload);
                gatherKey.push_back(~lane.payload);
            } else {
                std::int32_t s = lowerScalar(n.children[l]);
                computed.emplace_back(l, s);
                gatherKey.push_back(s);
            }
        }
        if (options_.valueNumbering) {
            auto it = valueNumbers_.find(gatherKey);
            if (it != valueNumbers_.end())
                return it->second;
        }
        std::int32_t dst = nextVector_++;
        emit(VmInst{VmOp::LoadConstV, dst, -1, -1, -1, 0, 0, constLanes});
        for (auto &[lane, s] : computed)
            emit(VmInst{VmOp::InsertLane, dst, s, -1, -1, 0, lane, {}});
        valueNumbers_.emplace(std::move(gatherKey), dst);
        return dst;
    }

    /** Lowers a vector-sorted node. */
    std::int32_t
    lowerVector(NodeId id)
    {
        auto it = vectorMemo_.find(id);
        if (it != vectorMemo_.end())
            return it->second;
        const TermNode &n = expr_.node(id);
        std::int32_t dst = -1;
        switch (n.op) {
          case Op::Vec:
            dst = lowerVec(n);
            break;
          case Op::VecAdd:
          case Op::VecMinus:
          case Op::VecMul:
          case Op::VecDiv: {
            std::int32_t a = lowerVector(n.children[0]);
            std::int32_t b = lowerVector(n.children[1]);
            VmOp op = n.op == Op::VecAdd     ? VmOp::VAdd
                      : n.op == Op::VecMinus ? VmOp::VSub
                      : n.op == Op::VecMul   ? VmOp::VMul
                                             : VmOp::VDiv;
            dst = emitNumbered(VmInst{op, -1, a, b, -1, 0, 0, {}}, true);
            break;
          }
          case Op::VecNeg:
          case Op::VecSgn:
          case Op::VecSqrt: {
            std::int32_t a = lowerVector(n.children[0]);
            VmOp op = n.op == Op::VecNeg   ? VmOp::VNeg
                      : n.op == Op::VecSgn ? VmOp::VSgn
                                           : VmOp::VSqrt;
            dst = emitNumbered(VmInst{op, -1, a, -1, -1, 0, 0, {}}, true);
            break;
          }
          case Op::VecMAC:
          case Op::VecMulSub: {
            std::int32_t acc = lowerVector(n.children[0]);
            std::int32_t a = lowerVector(n.children[1]);
            std::int32_t b = lowerVector(n.children[2]);
            dst = emitNumbered(
                VmInst{n.op == Op::VecMAC ? VmOp::VMac : VmOp::VMulSub,
                       -1, acc, a, b, 0, 0, {}},
                true);
            break;
          }
          case Op::VecSqrtSgn: {
            std::int32_t a = lowerVector(n.children[0]);
            std::int32_t b = lowerVector(n.children[1]);
            dst = emitNumbered(
                VmInst{VmOp::VSqrtSgn, -1, a, b, -1, 0, 0, {}}, true);
            break;
          }
          case Op::Concat:
            ISARIA_FATAL("Concat reached lowering; the front-end pads "
                         "chunks instead");
          default:
            ISARIA_FATAL("vector lowering hit a non-vector op");
        }
        vectorMemo_.emplace(id, dst);
        return dst;
    }

    /** Scalar-only chunk store for the unvectorized baseline. */
    void
    storeChunkScalar(NodeId chunk, int offset)
    {
        const TermNode &n = expr_.node(chunk);
        ISARIA_ASSERT(n.op == Op::Vec,
                      "scalar-only lowering expects raw Vec chunks");
        for (int l = 0; l < static_cast<int>(n.children.size()); ++l) {
            int element = offset + l;
            if (options_.totalOutputs >= 0 &&
                element >= options_.totalOutputs) {
                continue; // padding lane
            }
            std::int32_t s = lowerScalar(n.children[l]);
            emit(VmInst{VmOp::StoreScalar, -1, s, -1, -1,
                        outputArraySymbol(), element, {}});
        }
    }

    const RecExpr &expr_;
    const LowerOptions &options_;
    VmProgram out_;
    std::int32_t nextScalar_ = 0;
    std::int32_t nextVector_ = 0;
    std::unordered_map<NodeId, std::int32_t> scalarMemo_;
    std::unordered_map<NodeId, std::int32_t> vectorMemo_;
    std::map<std::vector<std::int64_t>, std::int32_t> valueNumbers_;
};

} // namespace

VmProgram
lowerProgram(const RecExpr &program, const LowerOptions &options)
{
    obs::Span span("lower",
                   static_cast<std::int64_t>(program.size()));
    if (options.width < 1) {
        ISARIA_FATAL("LowerOptions.width unset: derive it from the "
                     "machine description");
    }
    Lowerer lowerer(program, options);
    return lowerer.run();
}

Result<VmProgram>
tryLowerProgram(const RecExpr &program, const LowerOptions &options)
{
    try {
        return lowerProgram(program, options);
    } catch (const FatalError &e) {
        return Error{std::string("lowering failed: ") + e.what()};
    }
}

} // namespace isaria
