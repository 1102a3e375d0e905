#include "synth/enumerate.h"

#include <exception>
#include <unordered_map>

#include "support/panic.h"
#include "support/thread_pool.h"

namespace isaria
{

namespace
{

/** An enumerated term with its fingerprint and bookkeeping. */
struct TermInfo
{
    RecExpr expr;
    CVec cvec;
    Sort sort;
    int depth;
};

/** Terms whose fingerprints run in one parallel chunk. Large enough
 *  to amortize the fan-out, small enough that the cap counters (only
 *  updated at classification) never lag by much built-but-discarded
 *  work. */
constexpr std::size_t kFingerprintChunk = 256;

class Enumerator
{
  public:
    Enumerator(const IsaSpec &isa, const EnumConfig &config,
               const Deadline &deadline, ThreadPool *workers)
        : isa_(isa), config_(config), deadline_(deadline),
          workers_(workers),
          envs_(makeWildcardEnvs(config.numScalarVars, config.numVectorVars,
                                 /*width=*/1, config.numEnvs, config.seed))
    {}

    EnumResult
    run()
    {
        addAtoms();
        for (int depth = 1; depth <= config_.maxDepth && !stop(); ++depth)
            addLayer(depth);
        result_.classes = classes_.size();
        return std::move(result_);
    }

  private:
    bool
    stop()
    {
        if (config_.maxTerms > 0 &&
            result_.termsEnumerated >= config_.maxTerms)
            return true;
        if (deadline_.expired())
            result_.hitDeadline = true;
        return result_.hitDeadline ||
               (scalarCandidates_ >= config_.maxScalarCandidates &&
                vectorCandidates_ >= config_.maxVectorCandidates &&
                liftCandidates_ >= config_.maxLiftCandidates);
    }

    void
    addAtoms()
    {
        for (int s = 0; s < config_.numScalarVars; ++s) {
            RecExpr e;
            e.addWildcard(s);
            consider(std::move(e), 0);
        }
        for (std::int64_t c : config_.constants) {
            RecExpr e;
            e.addConst(c);
            consider(std::move(e), 0);
        }
        for (int v = 0; v < config_.numVectorVars; ++v) {
            RecExpr e;
            e.addWildcard(kVectorWildcardBase + v);
            consider(std::move(e), 0);
        }
        // Atoms are classified unconditionally (the sequential engine
        // never gated them on the deadline); they seed the layer-1
        // representative lists.
        flush(/*checkStop=*/false);
    }

    void
    addLayer(int depth)
    {
        // Snapshot the representative lists: terms created in this
        // layer only become expandable in the next one.
        std::vector<std::size_t> scalars = scalarReps_;
        std::vector<std::size_t> vectors = vectorReps_;

        auto depthOk = [&](std::initializer_list<std::size_t> args) {
            int maxDepth = 0;
            for (std::size_t a : args)
                maxDepth = std::max(maxDepth, terms_[a].depth);
            return maxDepth == depth - 1;
        };

        // Vector-sorted terms first: they are the point of the whole
        // exercise, and the candidate cap must not starve them behind
        // the ocean of scalar identities.
        for (std::size_t s : scalars) {
            if (stop())
                return;
            if (!depthOk({s}))
                continue;
            build(Op::Vec, {s}, depth);
        }
        for (Op op : isa_.vectorOps())
            applyOp(op, vectors, depth);
        for (Op op : isa_.scalarOps())
            applyOp(op, scalars, depth);
        // Drain the chunk so this layer's representatives exist before
        // the next layer snapshots them.
        flush(/*checkStop=*/true);
    }

    void
    applyOp(Op op, const std::vector<std::size_t> &pool, int depth)
    {
        int arity = opInfo(op).arity;
        // Ternary ops get a reduced pool: full cubes are never
        // affordable, and the useful rules involve small operands.
        std::size_t limit = pool.size();
        if (arity >= 3)
            limit = std::min<std::size_t>(limit, config_.maxReps / 8);

        auto within = [&](std::size_t i) { return i < limit; };
        if (arity == 1) {
            for (std::size_t a : pool) {
                if (stop())
                    return;
                if (terms_[a].depth == depth - 1)
                    build(op, {a}, depth);
            }
        } else if (arity == 2) {
            for (std::size_t i = 0; i < pool.size(); ++i) {
                for (std::size_t j = 0; j < pool.size(); ++j) {
                    if (stop())
                        return;
                    std::size_t a = pool[i], b = pool[j];
                    if (std::max(terms_[a].depth, terms_[b].depth) ==
                        depth - 1) {
                        build(op, {a, b}, depth);
                    }
                }
            }
        } else if (arity == 3) {
            for (std::size_t i = 0; within(i); ++i) {
                for (std::size_t j = 0; within(j); ++j) {
                    for (std::size_t k = 0; within(k); ++k) {
                        if (stop())
                            return;
                        std::size_t a = pool[i], b = pool[j], c = pool[k];
                        int d = std::max(terms_[a].depth,
                                         std::max(terms_[b].depth,
                                                  terms_[c].depth));
                        if (d == depth - 1)
                            build(op, {a, b, c}, depth);
                    }
                }
            }
        }
    }

    void
    build(Op op, std::initializer_list<std::size_t> args, int depth)
    {
        RecExpr e;
        std::vector<NodeId> kids;
        kids.reserve(args.size());
        for (std::size_t a : args)
            kids.push_back(e.addSubtree(terms_[a].expr,
                                        terms_[a].expr.rootId()));
        e.add(op, std::move(kids));
        consider(std::move(e), depth);
    }

    /**
     * Queues @p expr for fingerprinting. Fingerprints are pure and
     * computed chunk-at-a-time (in parallel when a pool is attached);
     * classification stays sequential in enumeration order, and the
     * stop predicate is re-evaluated before each classification, so
     * every counter, cap cutoff, candidate and representative is
     * byte-identical to the single-threaded engine. The build loops
     * may overshoot a freshly-reached cap by at most one chunk of
     * discarded work.
     */
    void
    consider(RecExpr expr, int depth)
    {
        pending_.push_back(Pending{std::move(expr), depth});
        if (pending_.size() >= kFingerprintChunk)
            flush(/*checkStop=*/true);
    }

    void
    flush(bool checkStop)
    {
        if (pending_.empty())
            return;
        std::vector<CVec> cvecs(pending_.size());
        std::vector<std::exception_ptr> errors(pending_.size());
        if (workers_ && workers_->threadCount() > 1) {
            workers_->parallelFor(pending_.size(), [&](std::size_t i) {
                try {
                    cvecs[i] = fingerprint(pending_[i].expr, envs_);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        } else {
            for (std::size_t i = 0; i < pending_.size(); ++i)
                cvecs[i] = fingerprint(pending_[i].expr, envs_);
        }
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            if (checkStop && stop())
                break; // the sequential engine stopped here too
            if (errors[i])
                std::rethrow_exception(errors[i]);
            classify(std::move(pending_[i].expr), std::move(cvecs[i]),
                     pending_[i].depth);
        }
        pending_.clear();
    }

    void
    classify(RecExpr expr, CVec cvec, int depth)
    {
        ++result_.termsEnumerated;
        // Terms with too little defined behaviour (e.g. division by a
        // zero constant) would collide vacuously; drop them.
        int minDefined = std::max(3, config_.numEnvs / 4);
        if (cvecDefinedCount(cvec) < minDefined)
            return;

        Sort sort = cvec.front().sort;
        std::size_t h = cvecHash(cvec);
        auto [it, inserted] = classes_.try_emplace(h, terms_.size());
        if (!inserted) {
            const TermInfo &rep = terms_[it->second];
            if (cvecAgree(rep.cvec, cvec)) {
                // Fingerprint collision with the representative: a
                // candidate rule, not a new class member. Ground
                // pairs (no wildcard on either side) are constant
                // identities that any general rule subsumes — skip.
                if (!rep.expr.wildcardIds().empty() ||
                    !expr.wildcardIds().empty()) {
                    bool lift = rep.expr.root().op == Op::Vec ||
                                expr.root().op == Op::Vec;
                    auto &count = lift ? liftCandidates_
                                  : (sort == Sort::Vector)
                                      ? vectorCandidates_
                                      : scalarCandidates_;
                    auto cap = lift ? config_.maxLiftCandidates
                               : (sort == Sort::Vector)
                                   ? config_.maxVectorCandidates
                                   : config_.maxScalarCandidates;
                    if (count < cap) {
                        ++count;
                        result_.candidates.push_back(
                            CandidatePair{rep.expr, std::move(expr)});
                    }
                }
                return;
            }
            // Genuine hash collision between distinct cvecs: rare;
            // drop the newcomer rather than complicating the index.
            return;
        }

        auto &reps = (sort == Sort::Vector) ? vectorReps_ : scalarReps_;
        bool expandable = reps.size() < config_.maxReps;
        terms_.push_back(TermInfo{std::move(expr), std::move(cvec), sort,
                                  depth});
        if (expandable)
            reps.push_back(terms_.size() - 1);
    }

    /** A term awaiting its (possibly parallel) fingerprint. */
    struct Pending
    {
        RecExpr expr;
        int depth;
    };

    const IsaSpec &isa_;
    const EnumConfig &config_;
    const Deadline &deadline_;
    ThreadPool *workers_;
    std::vector<Env> envs_;
    std::vector<Pending> pending_;
    std::vector<TermInfo> terms_;
    std::vector<std::size_t> scalarReps_;
    std::vector<std::size_t> vectorReps_;
    std::unordered_map<std::size_t, std::size_t> classes_;
    std::size_t scalarCandidates_ = 0;
    std::size_t vectorCandidates_ = 0;
    std::size_t liftCandidates_ = 0;
    EnumResult result_;
};

} // namespace

EnumResult
enumerateTerms(const IsaSpec &isa, const EnumConfig &config,
               const Deadline &deadline, ThreadPool *workers)
{
    Enumerator e(isa, config, deadline, workers);
    return e.run();
}

} // namespace isaria
