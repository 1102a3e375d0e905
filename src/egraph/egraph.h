#ifndef ISARIA_EGRAPH_EGRAPH_H
#define ISARIA_EGRAPH_EGRAPH_H

/**
 * @file
 * The e-graph: a congruence-closed union of program spaces.
 *
 * This is a from-scratch reimplementation of the data structure behind
 * the egg library (Willsey et al., POPL 2021) that Isaria and
 * Diospyros build on: hash-consed e-nodes grouped into e-classes by a
 * union-find, with congruence restored lazily by rebuild() after a
 * batch of merges.
 *
 * Two bookkeeping structures are maintained incrementally so the
 * saturation loop never rescans the whole graph:
 *  - live node/class counters, updated on add/merge/repair, making
 *    numNodes()/numClasses() O(1) (the runner polls them every few
 *    hundred rule applications);
 *  - an op -> classes index (which canonical classes contain at least
 *    one e-node with a given operator), invalidated lazily: merges
 *    append the surviving class for newly-gained ops and stale ids are
 *    compacted away on access instead of rebuilding the index from
 *    scratch each iteration.
 *
 * Every structural mutation (an e-node actually inserted, two classes
 * actually merged) bumps a generation counter. Consumers that cache
 * views or indexes derived from the graph — the op-index views below,
 * the extraction dependency index (egraph/extract.h) — key their
 * caches on (graphId, generation) and assert freshness on use.
 *
 * **Memory architecture** (DESIGN.md §12). The hot allocations of the
 * saturation loop live in a per-graph Arena (support/arena.h): spill
 * buffers of wide e-nodes (assignArena), the hash-cons table's nodes
 * (PoolAllocator), and the op->classes index lists (ArenaVector).
 * `ISARIA_EGRAPH_ARENA=0` reverts the node-level allocations to the
 * global allocator for A/B measurement. Byte accounting is exact:
 * bytesUsed() is maintained at every mutation site and equals
 * bytesUsedSlow()'s full recount (tests pin this), so the runner's
 * maxBytes guard cannot drift.
 */

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "egraph/enode.h"
#include "support/arena.h"
#include "support/panic.h"
#include "term/rec_expr.h"

namespace isaria
{

/** A set of equivalent e-nodes plus back-pointers to their users. */
struct EClass
{
    /** Canonicalized member nodes (deduplicated at rebuild). */
    std::vector<ENode> nodes;
    /** Nodes (in other classes) that have this class as a child. */
    std::vector<std::pair<ENode, EClassId>> parents;
};

class EGraph;

/**
 * A checked view of one operator's class list (see classesWithOp).
 * The underlying storage is owned by the e-graph and is only valid
 * until the next structural mutation (add that inserts, merge that
 * joins); every accessor asserts that the graph's generation still
 * matches the one the view was taken at, turning a use-after-
 * invalidate from silent garbage into an immediate panic.
 */
class OpClassesView
{
  public:
    OpClassesView() = default;

    const EClassId *begin() const { check(); return data_; }
    const EClassId *end() const { check(); return data_ + size_; }
    std::size_t size() const { check(); return size_; }
    bool empty() const { check(); return size_ == 0; }
    EClassId operator[](std::size_t i) const { check(); return data_[i]; }

    /**
     * An unchecked view over caller-owned storage (used by the runner
     * for wildcard-rooted rules, whose candidate list is a local copy
     * that cannot be invalidated by graph mutations).
     */
    static OpClassesView
    unchecked(const std::vector<EClassId> &ids)
    {
        OpClassesView view;
        view.data_ = ids.data();
        view.size_ = ids.size();
        return view;
    }

  private:
    friend class EGraph;
    void check() const;

    const EClassId *data_ = nullptr;
    std::size_t size_ = 0;
    /** Owning graph; null for unchecked views. */
    const EGraph *owner_ = nullptr;
    std::uint64_t generation_ = 0;
};

/** Allocation statistics of one e-graph's arena. */
struct EGraphArenaStats
{
    /** False when ISARIA_EGRAPH_ARENA=0 routed node allocations to
     *  the global allocator (the A/B baseline). */
    bool arenaEnabled = false;
    /** Live bytes at the arena frontier. */
    std::uint64_t bytesAllocated = 0;
    /** Chunk capacity resident (never shrinks). */
    std::uint64_t bytesReserved = 0;
    std::size_t numChunks = 0;
    /** Monotonic arena allocation count (bump-pointer hits). */
    std::uint64_t allocations = 0;
    /** Monotonic count of chunks obtained from the heap — the
     *  graph's actual allocator traffic for arena-backed storage. */
    std::uint64_t chunkAllocations = 0;
};

/** Hash-consed congruence-closed e-graph. */
class EGraph
{
  public:
    EGraph();

    /**
     * Deep copy. The copy gets a fresh graphId() (the implicit copy
     * would have duplicated it, silently breaking the process-unique
     * contract that derived caches key on) and a fresh arena; every
     * copied node owns its storage.
     */
    EGraph(const EGraph &other);
    EGraph(EGraph &&) noexcept = default;
    /**
     * Assignment is deliberately absent: the memo table's allocator
     * points into the source graph's arena pool, so a member-wise
     * assignment would free nodes through a dead pool. Construct a
     * fresh graph instead.
     */
    EGraph &operator=(const EGraph &) = delete;
    EGraph &operator=(EGraph &&) = delete;

    /** Adds (or finds) an e-node; children must be existing classes. */
    EClassId add(ENode node);

    /** Adds a whole term bottom-up; returns the root's class. */
    EClassId addExpr(const RecExpr &expr);

    /** Adds the subtree of @p expr rooted at @p root. */
    EClassId addExpr(const RecExpr &expr, NodeId root);

    /** Canonical id of @p id. */
    EClassId find(EClassId id) const { return uf_.find(id); }

    /**
     * Canonical id of @p id as a pure read (no path compression).
     * This is the only find that may be used while the e-graph is
     * frozen and searched from multiple threads; rebuild() fully
     * compresses the union-find so it is O(1) in that state.
     */
    EClassId findFrozen(EClassId id) const
    {
        return uf_.findNoCompress(id);
    }

    /**
     * Asserts @p a and @p b equal. Returns true if the graph changed
     * (the classes were distinct). Congruence is restored lazily:
     * call rebuild() after a batch of merges.
     */
    bool merge(EClassId a, EClassId b);

    /** Restores congruence and hash-cons invariants. */
    void rebuild();

    /** The e-class with canonical id @p id. */
    const EClass &
    eclass(EClassId id) const
    {
        return classes_[find(id)];
    }

    /** Like eclass(), but thread-safe on a frozen e-graph. */
    const EClass &
    eclassFrozen(EClassId id) const
    {
        return classes_[uf_.findNoCompress(id)];
    }

    /** All canonical class ids (valid only after rebuild). */
    std::vector<EClassId> canonicalClasses() const;

    /**
     * Canonical classes containing at least one e-node with operator
     * @p op, sorted ascending. Maintained incrementally: this call
     * compacts stale (merged-away) ids in place instead of rebuilding
     * the index. Call only on a rebuilt (non-dirty) e-graph. The view
     * is valid until the next structural add/merge — and, unlike the
     * bare reference this used to return, it asserts on any use after
     * that point (the generation check in OpClassesView).
     */
    OpClassesView classesWithOp(Op op);

    /**
     * Monotonic count of structural mutations: bumped by every add()
     * that inserts a new e-node, every merge() that joins two distinct
     * classes (congruence repairs inside rebuild() go through merge(),
     * so they bump it too). Derived caches — op-index views, the
     * extraction dependency index — are valid exactly while this stays
     * unchanged.
     */
    std::uint64_t generation() const { return generation_; }

    /**
     * Process-unique id of this EGraph instance. Two graphs never
     * share an id, even when one is constructed at the address a
     * destroyed one occupied — (graphId, generation) is therefore a
     * sound cache key for derived indexes that may outlive the graph
     * they were built from.
     */
    std::uint64_t graphId() const { return graphId_; }

    /** Ids ever allocated (canonical or merged away): the exclusive
     *  upper bound of every EClassId, for dense per-class arrays. */
    std::size_t numIds() const { return classes_.size(); }

    /** Total e-nodes across canonical classes (O(1), incremental). */
    std::size_t numNodes() const { return liveNodes_; }

    /**
     * Accounted footprint of the e-graph in bytes, maintained exactly
     * at every mutation site: add() charges its e-node (class member
     * + hashcons key + per-child parent back-pointers + class
     * overhead), repair() refunds detached parents and erased
     * hashcons keys and charges reinstalls, and deduplication refunds
     * dropped nodes at their full footprint. bytesUsedSlow() recounts
     * the same quantity from scratch; the two always agree (tests pin
     * it). The saturation runner polls this against
     * EqSatLimits::maxBytes to realize the paper's "ran out of
     * memory" condition at byte (not just node-count) granularity.
     */
    std::size_t bytesUsed() const { return bytesUsed_; }

    /** Full recount of bytesUsed() from the live structures. */
    std::size_t bytesUsedSlow() const;

    /** Number of canonical classes (O(1), incremental). */
    std::size_t numClasses() const { return liveClasses_; }

    /** O(all-classes) recount of numNodes(), for cross-checks. */
    std::size_t numNodesSlow() const;

    /** O(all-classes) recount of numClasses(), for cross-checks. */
    std::size_t numClassesSlow() const;

    /** True if the ids are in the same class. */
    bool
    same(EClassId a, EClassId b) const
    {
        return find(a) == find(b);
    }

    /** True when merges since the last rebuild() are pending. */
    bool dirty() const { return !worklist_.empty(); }

    /** Arena allocation counters (obs: egraph/arena/...). */
    EGraphArenaStats arenaStats() const;

  private:
    using MemoAlloc = PoolAllocator<std::pair<const ENode, EClassId>>;
    using MemoMap = std::unordered_map<ENode, EClassId, ENodeHash,
                                       std::equal_to<ENode>, MemoAlloc>;

    void repair(EClassId id);
    void dedupNodesInPlace(EClassId id);

    /** A copy of @p node for storage inside this graph: spill
     *  children land in the arena (heap when the arena is off). */
    ENode graphCopy(const ENode &node) const;

    static unsigned opBit(Op op) { return static_cast<unsigned>(op); }

    /** Flat bytes of one e-node copy (struct + spill buffer). */
    static std::size_t
    nodeBytes(const ENode &node)
    {
        std::size_t spill =
            node.children.size() > ChildArray::kInlineCapacity
                ? node.children.size() * sizeof(EClassId)
                : 0;
        return sizeof(ENode) + spill;
    }

    /** Bytes charged for one e-node's presence in the graph. */
    static std::size_t enodeFootprint(const ENode &node);

    /** Per-class-id overhead charged once at id creation. */
    static constexpr std::size_t kPerIdOverhead =
        sizeof(EClass) + sizeof(EClassId) + sizeof(std::uint32_t);

    /** Arena + free lists, heap-pinned so the memo allocator's pool
     *  pointer survives moves of the EGraph itself. Declared first:
     *  members holding arena memory must be destroyed before it. */
    std::unique_ptr<ArenaPool> mem_;

    UnionFind uf_;
    std::vector<EClass> classes_;
    MemoMap memo_;
    std::vector<EClassId> worklist_;

    /** Incremental counters mirroring the slow scans. */
    std::size_t liveNodes_ = 0;
    std::size_t liveClasses_ = 0;
    std::size_t bytesUsed_ = 0;

    /** See generation() / graphId(). */
    std::uint64_t generation_ = 0;
    std::uint64_t graphId_ = nextGraphId();
    static std::uint64_t nextGraphId();

    /** Bitmask of operators present in each class (by class id). */
    std::vector<std::uint32_t> opMask_;
    /** Per-op class lists (arena-backed); may hold stale ids until
     *  compacted on access. */
    std::vector<ArenaVector<EClassId>> opClasses_ =
        std::vector<ArenaVector<EClassId>>(
            static_cast<std::size_t>(Op::NumOps));
};

inline void
OpClassesView::check() const
{
    ISARIA_ASSERT(!owner_ || owner_->generation() == generation_,
                  "op-index view used after invalidation (the e-graph "
                  "mutated since classesWithOp)");
}

} // namespace isaria

#endif // ISARIA_EGRAPH_EGRAPH_H
