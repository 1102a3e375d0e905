#include "egraph/egraph.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

#include "support/fault.h"
#include "support/panic.h"

namespace isaria
{

static_assert(static_cast<unsigned>(Op::NumOps) <= 32,
              "the per-class operator mask is a 32-bit word");

namespace
{

/**
 * ISARIA_EGRAPH_ARENA=0 (or "off"/"false") routes the per-node
 * allocations back through the global allocator — the A/B baseline
 * the scaling benchmark measures the arena against. Read at each
 * graph's construction (not cached) so a process can flip it between
 * graphs.
 */
bool
arenaEnabledFromEnv()
{
    const char *env = std::getenv("ISARIA_EGRAPH_ARENA");
    if (!env || !*env)
        return true;
    return std::strcmp(env, "0") != 0 && std::strcmp(env, "off") != 0 &&
           std::strcmp(env, "false") != 0;
}

} // namespace

std::uint64_t
EGraph::nextGraphId()
{
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

EGraph::EGraph()
    : mem_(std::make_unique<ArenaPool>()),
      memo_(0, ENodeHash{}, std::equal_to<ENode>{}, MemoAlloc(mem_.get()))
{
    mem_->enabled = arenaEnabledFromEnv();
}

EGraph::EGraph(const EGraph &other)
    : mem_(std::make_unique<ArenaPool>()),
      memo_(0, ENodeHash{}, std::equal_to<ENode>{}, MemoAlloc(mem_.get()))
{
    mem_->enabled = other.mem_->enabled;
    uf_ = other.uf_;
    worklist_ = other.worklist_;
    liveNodes_ = other.liveNodes_;
    liveClasses_ = other.liveClasses_;
    bytesUsed_ = other.bytesUsed_;
    generation_ = other.generation_;
    opMask_ = other.opMask_;
    // graphId_ keeps its fresh default-initialized value: the copy is
    // a distinct graph, and derived caches keyed on (graphId,
    // generation) must not confuse it with the source.

    classes_.reserve(other.classes_.size());
    for (const EClass &src : other.classes_) {
        EClass dst;
        dst.nodes.reserve(src.nodes.size());
        for (const ENode &node : src.nodes)
            dst.nodes.push_back(graphCopy(node));
        dst.parents.reserve(src.parents.size());
        for (const auto &[node, pid] : src.parents)
            dst.parents.emplace_back(graphCopy(node), pid);
        classes_.push_back(std::move(dst));
    }
    // Rebuild (rather than copy) the hashcons so its nodes live in
    // this graph's pool. Copied verbatim — including any stale ids the
    // source's lazy index holds — so dirty graphs copy faithfully.
    for (const auto &[node, id] : other.memo_)
        memo_.emplace(graphCopy(node), id);
    for (std::size_t i = 0; i < opClasses_.size(); ++i) {
        for (EClassId id : other.opClasses_[i])
            opClasses_[i].push_back(mem_->arena, id);
    }
}

std::size_t
EGraph::enodeFootprint(const ENode &node)
{
    // One copy lives in its class, one as the hashcons key, and each
    // child's parent list holds another (plus the back-pointer id).
    // Children up to ChildArray::kInlineCapacity live inside the node
    // itself (already covered by sizeof(ENode)); only wider nodes
    // charge a spill buffer.
    std::size_t nb = nodeBytes(node);
    return 2 * nb + node.children.size() * (nb + sizeof(EClassId));
}

ENode
EGraph::graphCopy(const ENode &node) const
{
    ENode out;
    out.op = node.op;
    out.payload = node.payload;
    if (mem_->enabled &&
        node.children.size() > ChildArray::kInlineCapacity) {
        out.children.assignArena(mem_->arena, node.children.data(),
                                 node.children.size());
    } else {
        out.children = node.children;
    }
    out.hashCache = node.hashCache;
    return out;
}

EClassId
EGraph::add(ENode node)
{
    ENode canon = node.canonical(uf_);
    auto it = memo_.find(canon);
    if (it != memo_.end())
        return uf_.find(it->second);

    // A fresh allocation is the point where memory is actually
    // committed, so it is the e-graph's fault-injection site: a fired
    // fault throws before any mutation, leaving the graph consistent.
    faultPoint(FaultSite::EGraphAlloc);

    bytesUsed_ += enodeFootprint(canon) + kPerIdOverhead;

    ++generation_;
    EClassId id = uf_.makeSet();
    classes_.emplace_back();
    classes_[id].nodes.push_back(graphCopy(canon));
    opMask_.push_back(1u << opBit(canon.op));
    opClasses_[opBit(canon.op)].push_back(mem_->arena, id);
    ++liveNodes_;
    ++liveClasses_;
    for (EClassId child : canon.children)
        classes_[child].parents.emplace_back(graphCopy(canon), id);
    memo_.emplace(graphCopy(canon), id);
    return id;
}

EClassId
EGraph::addExpr(const RecExpr &expr)
{
    ISARIA_ASSERT(!expr.empty(), "adding empty expression");
    return addExpr(expr, expr.rootId());
}

EClassId
EGraph::addExpr(const RecExpr &expr, NodeId root)
{
    // Iterative bottom-up insertion over the whole prefix of the
    // term, then return the class of the requested root.
    std::vector<EClassId> classOf(root + 1);
    for (NodeId id = 0; id <= root; ++id) {
        const TermNode &n = expr.node(id);
        ISARIA_ASSERT(n.op != Op::Wildcard,
                      "wildcards cannot be added to an e-graph");
        ENode node;
        node.op = n.op;
        node.payload = n.payload;
        node.children.reserve(n.children.size());
        for (NodeId child : n.children)
            node.children.push_back(classOf[child]);
        classOf[id] = add(std::move(node));
    }
    return classOf[root];
}

bool
EGraph::merge(EClassId a, EClassId b)
{
    EClassId ra = uf_.find(a);
    EClassId rb = uf_.find(b);
    if (ra == rb)
        return false;

    ++generation_;
    EClassId keep = uf_.join(ra, rb);
    EClassId gone = (keep == ra) ? rb : ra;

    // Move nodes and parents into the surviving class.
    auto &keepClass = classes_[keep];
    auto &goneClass = classes_[gone];
    keepClass.nodes.insert(keepClass.nodes.end(),
                           std::make_move_iterator(goneClass.nodes.begin()),
                           std::make_move_iterator(goneClass.nodes.end()));
    keepClass.parents.insert(
        keepClass.parents.end(),
        std::make_move_iterator(goneClass.parents.begin()),
        std::make_move_iterator(goneClass.parents.end()));
    goneClass.nodes.clear();
    goneClass.nodes.shrink_to_fit();
    goneClass.parents.clear();
    goneClass.parents.shrink_to_fit();

    // The survivor gains the absorbed class's operators; enqueue it in
    // the index only for ops it did not already have, keeping the
    // per-op lists short.
    std::uint32_t gained = opMask_[gone] & ~opMask_[keep];
    opMask_[keep] |= opMask_[gone];
    while (gained) {
        unsigned bit = static_cast<unsigned>(__builtin_ctz(gained));
        gained &= gained - 1;
        opClasses_[bit].push_back(mem_->arena, keep);
    }
    --liveClasses_;

    worklist_.push_back(keep);
    return true;
}

void
EGraph::rebuild()
{
    bool merged = !worklist_.empty();
    while (!worklist_.empty()) {
        std::vector<EClassId> todo;
        todo.swap(worklist_);
        std::sort(todo.begin(), todo.end());
        todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
        for (EClassId id : todo)
            repair(uf_.find(id));
    }
    // Freeze-friendly: after full compression findFrozen is one load,
    // so the parallel search phase never path-compresses (writes).
    uf_.compressAll();
    if (!merged)
        return;
    // Final canonicalization sweep. Congruence can make two nodes of a
    // class identical without that class ever reaching the worklist:
    // when their shared *child* classes merge, the parent collision in
    // repair() is a merge of the class with itself — a no-op that
    // enqueues nothing. Sweeping every class once per rebuild
    // canonicalizes all nodes in place and drops such duplicates, so
    // numNodes() counts distinct canonical nodes regardless of the
    // merge history (egg's rebuild_classes does the same).
    for (EClassId id = 0; id < uf_.size(); ++id) {
        if (uf_.find(id) == id)
            dedupNodesInPlace(id);
    }
}

void
EGraph::repair(EClassId id)
{
    // Detach the stale parent list first: merges below may move
    // parent lists around, invalidating references into classes_.
    std::vector<std::pair<ENode, EClassId>> parents;
    parents.swap(classes_[id].parents);

    // Re-canonicalize parents. A collision — two parents becoming the
    // same canonical e-node — means they are congruent: merge them.
    // Accounting: each detached parent entry (and each hashcons key
    // actually erased) is refunded here at its exact footprint;
    // surviving canonical entries are re-charged on reinstall, so
    // bytesUsed() tracks bytesUsedSlow() through the churn.
    // Pool-backed like the memo: repair runs once per dirty class per
    // rebuild, and its map nodes recycle through the same size
    // buckets the memo uses instead of hitting the global allocator.
    MemoMap newParents(0, ENodeHash{}, std::equal_to<ENode>{},
                       MemoAlloc(mem_.get()));
    newParents.reserve(parents.size());
    for (auto &[pnode, pclass] : parents) {
        std::size_t nb = nodeBytes(pnode);
        bytesUsed_ -= nb + sizeof(EClassId);
        if (memo_.erase(pnode) != 0)
            bytesUsed_ -= nb;
        ENode canon = pnode.canonical(uf_);
        EClassId canonClass = uf_.find(pclass);
        auto it = newParents.find(canon);
        if (it != newParents.end()) {
            merge(canonClass, it->second);
            it->second = uf_.find(it->second);
        } else {
            newParents.emplace(std::move(canon), canonClass);
        }
    }

    // Reinstall into the hashcons; an existing entry for the same
    // canonical node is another congruence to merge, never overwrite.
    for (auto &[node, cid] : newParents) {
        auto mit = memo_.find(node);
        if (mit != memo_.end()) {
            merge(mit->second, cid);
            mit->second = uf_.find(mit->second);
        } else {
            bytesUsed_ += nodeBytes(node);
            memo_.emplace(graphCopy(node), cid);
        }
    }

    // repair() may run on a class that has since been merged away;
    // route the refreshed parent list to the current representative.
    EClass &target = classes_[uf_.find(id)];
    for (auto &[node, cid] : newParents) {
        bytesUsed_ += nodeBytes(node) + sizeof(EClassId);
        target.parents.emplace_back(graphCopy(node), uf_.find(cid));
    }

    // Deduplicate this class's own nodes under canonicalization; the
    // rebuild() sweep repeats this for every class once the worklist
    // drains, catching classes whose nodes collided without the class
    // itself ever being enqueued.
    dedupNodesInPlace(uf_.find(id));
}

void
EGraph::dedupNodesInPlace(EClassId id)
{
    // In place: each node's children are rewritten to canonical ids
    // where they sit (no per-node copy), and survivors are compacted
    // to the front in first-occurrence order. The dedup set holds
    // pointers into the (never reallocated) node vector; a pointer is
    // only inserted once its slot is final, so compaction moves never
    // invalidate a set entry.
    EClass &self = classes_[id];
    if (self.nodes.empty())
        return;
    if (self.nodes.size() == 1) {
        self.nodes.front().canonicalize(uf_);
        return;
    }
    // Small classes (the overwhelming majority during saturation) are
    // deduped by quadratic scan: no hash-set allocation, same
    // first-occurrence order. The cached structural hash makes each
    // comparison cheap (hash check first, full compare on equality).
    if (self.nodes.size() <= 16) {
        ENodeHash hasher;
        std::size_t keep = 0;
        for (std::size_t i = 0; i < self.nodes.size(); ++i) {
            self.nodes[i].canonicalize(uf_);
            bool duplicate = false;
            std::size_t hi = hasher(self.nodes[i]);
            for (std::size_t j = 0; j < keep; ++j) {
                if (hasher(self.nodes[j]) == hi &&
                    self.nodes[j] == self.nodes[i]) {
                    duplicate = true;
                    break;
                }
            }
            if (duplicate) {
                bytesUsed_ -= nodeBytes(self.nodes[i]);
                continue;
            }
            if (keep != i)
                self.nodes[keep] = std::move(self.nodes[i]);
            ++keep;
        }
        liveNodes_ -= self.nodes.size() - keep;
        self.nodes.resize(keep);
        return;
    }
    struct NodePtrHash
    {
        std::size_t
        operator()(const ENode *node) const
        {
            return ENodeHash{}(*node);
        }
    };
    struct NodePtrEq
    {
        bool
        operator()(const ENode *a, const ENode *b) const
        {
            return *a == *b;
        }
    };
    std::unordered_set<const ENode *, NodePtrHash, NodePtrEq> dedup;
    dedup.reserve(self.nodes.size());
    std::size_t keep = 0;
    for (std::size_t i = 0; i < self.nodes.size(); ++i) {
        self.nodes[i].canonicalize(uf_);
        if (dedup.count(&self.nodes[i])) {
            // Refund the dropped duplicate at its full flat footprint
            // (struct plus any spill buffer) — refunding bare
            // sizeof(ENode) would leak the spill bytes into
            // bytesUsed() forever, drifting it away from
            // bytesUsedSlow() on wide-node workloads.
            bytesUsed_ -= nodeBytes(self.nodes[i]);
            continue;
        }
        if (keep != i)
            self.nodes[keep] = std::move(self.nodes[i]);
        dedup.insert(&self.nodes[keep]);
        ++keep;
    }
    liveNodes_ -= self.nodes.size() - keep;
    self.nodes.resize(keep);
}

std::vector<EClassId>
EGraph::canonicalClasses() const
{
    std::vector<EClassId> out;
    out.reserve(liveClasses_);
    for (EClassId id = 0; id < uf_.size(); ++id) {
        if (uf_.find(id) == id)
            out.push_back(id);
    }
    return out;
}

OpClassesView
EGraph::classesWithOp(Op op)
{
    ISARIA_ASSERT(!dirty(), "op index queried on a dirty e-graph");
    ArenaVector<EClassId> &list = opClasses_[opBit(op)];
    // Compact: canonicalize, drop classes merged into ones already
    // listed, and keep the list sorted so search order (and therefore
    // match order) is deterministic.
    for (EClassId &id : list)
        id = uf_.find(id);
    std::sort(list.begin(), list.end());
    EClassId *last = std::unique(list.begin(), list.end());
    list.truncate(static_cast<std::size_t>(last - list.begin()));
    OpClassesView view;
    view.data_ = list.data();
    view.size_ = list.size();
    view.owner_ = this;
    view.generation_ = generation_;
    return view;
}

std::size_t
EGraph::numNodesSlow() const
{
    std::size_t total = 0;
    for (EClassId id = 0; id < uf_.size(); ++id) {
        if (uf_.find(id) == id)
            total += classes_[id].nodes.size();
    }
    return total;
}

std::size_t
EGraph::numClassesSlow() const
{
    std::size_t total = 0;
    for (EClassId id = 0; id < uf_.size(); ++id) {
        if (uf_.find(id) == id)
            ++total;
    }
    return total;
}

std::size_t
EGraph::bytesUsedSlow() const
{
    // The ground truth bytesUsed() must track: per-id overhead plus
    // the flat footprint of every node copy actually held — class
    // members, parent back-pointers (with their id), hashcons keys.
    std::size_t total = classes_.size() * kPerIdOverhead;
    for (const EClass &cls : classes_) {
        for (const ENode &node : cls.nodes)
            total += nodeBytes(node);
        for (const auto &[node, pid] : cls.parents) {
            (void)pid;
            total += nodeBytes(node) + sizeof(EClassId);
        }
    }
    for (const auto &[node, id] : memo_) {
        (void)id;
        total += nodeBytes(node);
    }
    return total;
}

EGraphArenaStats
EGraph::arenaStats() const
{
    EGraphArenaStats stats;
    stats.arenaEnabled = mem_->enabled;
    stats.bytesAllocated = mem_->arena.bytesAllocated();
    stats.bytesReserved = mem_->arena.bytesReserved();
    stats.numChunks = mem_->arena.numChunks();
    stats.allocations = mem_->arena.allocations();
    stats.chunkAllocations = mem_->arena.chunkAllocations();
    return stats;
}

} // namespace isaria
