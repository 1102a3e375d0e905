#ifndef ISARIA_EGRAPH_UNION_FIND_H
#define ISARIA_EGRAPH_UNION_FIND_H

/**
 * @file
 * Disjoint-set forest over dense e-class ids.
 */

#include <cstdint>
#include <vector>

namespace isaria
{

/** Dense id of an e-class. */
using EClassId = std::uint32_t;

/**
 * Union-find with path halving. Union is by smaller canonical id, so
 * the canonical representative of a set is stable and predictable
 * (useful for deterministic extraction and tests).
 */
class UnionFind
{
  public:
    /** Creates a fresh singleton set and returns its id. */
    EClassId makeSet();

    /** Canonical representative of @p id. */
    EClassId find(EClassId id) const;

    /**
     * Canonical representative of @p id without path compression: a
     * pure read, safe to call concurrently from the parallel search
     * phase while the forest is frozen. O(1) after compressAll(),
     * correct (just slower) at any other time.
     */
    EClassId
    findNoCompress(EClassId id) const
    {
        while (parents_[id] != id)
            id = parents_[id];
        return id;
    }

    /**
     * Points every element directly at its root, so subsequent
     * findNoCompress calls are a single load. Called after rebuild,
     * before the e-graph is frozen for concurrent searching.
     */
    void compressAll();

    /**
     * Unions the sets of @p a and @p b; returns the canonical id of
     * the merged set. No-op (returning the shared root) when already
     * joined.
     */
    EClassId join(EClassId a, EClassId b);

    std::size_t size() const { return parents_.size(); }

  private:
    // find() is logically const; the mutable parent vector allows
    // path compression during reads.
    mutable std::vector<EClassId> parents_;
};

} // namespace isaria

#endif // ISARIA_EGRAPH_UNION_FIND_H
