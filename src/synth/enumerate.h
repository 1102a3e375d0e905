#ifndef ISARIA_SYNTH_ENUMERATE_H
#define ISARIA_SYNTH_ENUMERATE_H

/**
 * @file
 * Bottom-up term enumeration with cvec fingerprint classing (§3.1).
 *
 * Terms of the single-lane-reduced DSL are enumerated in layers of
 * increasing depth. Each term is fingerprinted on a battery of
 * environments; terms landing in an existing fingerprint class become
 * candidate rewrite rules against the class representative, while new
 * classes contribute their representative to the next layer — the
 * workset discipline Ruler uses to keep enumeration from exploding.
 */

#include <cstdint>
#include <vector>

#include "interp/cvec.h"
#include "isa/isa_spec.h"
#include "support/timer.h"
#include "term/pattern.h"

namespace isaria
{

class ThreadPool;

/** Enumeration budget and grammar parameters. */
struct EnumConfig
{
    /** Distinct scalar wildcards available to the grammar. */
    int numScalarVars = 3;
    /** Distinct whole-vector wildcards (3 covers ternary VecMAC). */
    int numVectorVars = 3;
    /** Integer literals available to the grammar. */
    std::vector<std::int64_t> constants = {0, 1};
    /** Maximum operator depth. */
    int maxDepth = 3;
    /** Cap on expandable class representatives per sort. */
    std::size_t maxReps = 400;
    /**
     * Caps on candidate pairs gathered, split by sort: the scalar
     * algebra yields orders of magnitude more collisions than the
     * vector fragment and must not starve it. Collection stops at the
     * cap; enumeration continues for the other sort.
     */
    std::size_t maxScalarCandidates = 12000;
    std::size_t maxVectorCandidates = 20000;
    /** Separate cap for *lift* pairs — candidates with a Vec literal
     *  at a root, i.e. the future compilation rules. */
    std::size_t maxLiftCandidates = 15000;
    /**
     * Work bound: enumeration stops once this many terms have been
     * classified (0 = unbounded). Classification is sequential in
     * enumeration order, so the cut falls on the same term at any
     * thread count and on any machine — unlike a wall-clock slice,
     * which cuts wherever the clock happens to be.
     */
    std::size_t maxTerms = 200'000;
    /** Fingerprint battery size. */
    int numEnvs = 24;
    std::uint64_t seed = 0x15A21Aull;
};

/** A candidate equality discovered by fingerprint collision. */
struct CandidatePair
{
    RecExpr a;
    RecExpr b;
};

/** Result of one enumeration run. */
struct EnumResult
{
    std::vector<CandidatePair> candidates;
    std::size_t termsEnumerated = 0;
    std::size_t classes = 0;
    /** The deadline cut the run short: the result depends on the clock. */
    bool hitDeadline = false;
};

/**
 * Enumerates the single-lane reduction of @p isa (every Vec literal
 * has one lane), collecting candidate pairs until the grammar, the
 * candidate caps, or the maxTerms work bound is exhausted. @p deadline
 * is a safety net only: when it fires first, the result is marked
 * hitDeadline. The ISA's vector ops are included; Concat and List are
 * not part of the synthesis grammar (see DESIGN.md).
 *
 * When @p workers is given (and sized above 1), cvec fingerprints are
 * computed in parallel chunks; classification — the only stateful
 * step, and the only one the caps and counters observe — stays
 * sequential in enumeration order, so the result is identical to the
 * single-threaded run at any thread count.
 */
EnumResult enumerateTerms(const IsaSpec &isa, const EnumConfig &config,
                          const Deadline &deadline,
                          ThreadPool *workers = nullptr);

} // namespace isaria

#endif // ISARIA_SYNTH_ENUMERATE_H
