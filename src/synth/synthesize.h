#ifndef ISARIA_SYNTH_SYNTHESIZE_H
#define ISARIA_SYNTH_SYNTHESIZE_H

/**
 * @file
 * The offline rule-synthesis pipeline (Section 3.1).
 *
 * enumerate -> candidate pairs -> shrink (verify + derivability
 * pruning by equality saturation, as in Ruler) -> generalize across
 * vector lanes to the architecture width -> re-verify.
 */

#include "egraph/runner.h"
#include "isa/cost_model.h"
#include "synth/enumerate.h"
#include "synth/ruleset.h"
#include "verify/verifier.h"

namespace isaria
{

/**
 * Budget and knobs for one offline synthesis run.
 *
 * The synthesized rule set is a function of the ISA and this config
 * alone: every decision that shapes it is bounded by work (the
 * enumeration term bound and candidate caps, the rule cap, the
 * derivability checks' iteration/node/match limits), never by the
 * clock. The wall clock can only cut a run short; a cut run is marked
 * SynthReport::hitDeadline and never cached.
 */
struct SynthConfig
{
    EnumConfig enumConfig;
    VerifyOptions verify;
    /**
     * Wall-clock safety net in seconds (<=0 unlimited). It does not
     * size the run — EnumConfig::maxTerms and the caps do — and on an
     * idle machine a default-config run finishes well inside it. When
     * it fires (enumeration is cut at a fixed share of it so shrinking
     * still has time for what was found), the run is marked
     * hitDeadline.
     */
    double timeoutSeconds = 30;
    /** Stop after this many accepted (directed) rules. */
    std::size_t maxRules = 600;
    /** Candidates accepted between derivability prunes. */
    int batchSize = 16;
    /**
     * Cost parameters used to spot *shortcut* candidates: a pair
     * whose two sides differ in cost by more than alpha would become
     * a compilation rule, and such shortcuts are kept even when they
     * are derivable from smaller rules — one application of a
     * shortcut replaces a whole chain of rewrites at compile time,
     * which is what keeps saturation tractable (cf. the shortcut-rule
     * discussion in Section 5.2).
     */
    CostParams costParams = {};
    /** Keep shortcut candidates even when derivable (see above).
     *  Disable to reproduce strict Ruler-style minimization in the
     *  ablation bench. */
    bool keepShortcutCandidates = true;
    /** Budgets for each derivability-check saturation. The iteration,
     *  node and match limits decide the outcome; timeoutSeconds is a
     *  safety net far above the work (single checks take up to about
     *  0.5 s on rvv-w8+mulsub at one thread), and a check stopped by
     *  it marks the run hitDeadline. Includes EqSatLimits::numThreads:
     *  the shrinking loop's e-matching runs on the parallel search
     *  engine, and because matches are thread-count independent, the
     *  synthesized ruleset is too. */
    EqSatLimits derivLimits = {.maxNodes = 30'000,
                               .maxIters = 2,
                               .timeoutSeconds = 10,
                               .maxMatchesPerRule = 2'000};
    /**
     * Worker threads for candidate verification and cvec
     * fingerprinting (the offline-phase hot loops). 0 = auto: the
     * ISARIA_EQSAT_THREADS environment variable if set, otherwise
     * hardware concurrency; 1 = fully sequential. Verification is
     * pure, so candidates are verified speculatively in batches and
     * their accept/reject decisions committed in the sequential
     * order; fingerprinting parallelizes but classification (which
     * the work bound counts) stays sequential. The synthesized rule
     * set is therefore byte-identical at any thread count, unless the
     * timeoutSeconds safety net cuts the run (hitDeadline). When a
     * fault-injection plan is armed the run drops to the sequential
     * path so the synth-verify site keeps its deterministic arrival
     * ordinals.
     */
    int numThreads = 0;
};

/** Outcome of the offline pipeline. */
struct SynthReport
{
    /** Rules over the single-lane reduction (pre-generalization). */
    RuleSet oneWideRules;
    /** Rules generalized to the ISA's vector width — the compiler's
     *  rule set. */
    RuleSet rules;
    /** Terms enumeration classified (see EnumConfig::maxTerms). */
    std::size_t termsEnumerated = 0;
    std::size_t candidatesConsidered = 0;
    std::size_t rejectedUnsound = 0;
    std::size_t prunedDerivable = 0;
    std::size_t droppedAtGeneralization = 0;
    /** Candidate pairs dropped as duplicates of an earlier pair
     *  (keyed on the sorted canonical hash pair, collision-free). */
    std::size_t duplicatePairs = 0;
    /** verifyRule calls issued speculatively by the batched parallel
     *  verifier; the consumed subset shows up in the verdict
     *  counters, the rest is parallel slack. */
    std::size_t prefetchedVerifications = 0;
    double enumerateSeconds = 0;
    double shrinkSeconds = 0;
    double generalizeSeconds = 0;
    /** The timeoutSeconds safety net cut the run — in enumeration,
     *  the shrink loop, or a derivability check — so the rule set
     *  depends on the clock. Such a run is never cached. */
    bool hitDeadline = false;
    /** Verification threads actually used (resolved from numThreads). */
    int verifyThreads = 1;
    /** The report was served from a persistent cache (src/cache/):
     *  no enumeration, verification, or shrinking ran. */
    bool fromCache = false;
    /** Verifier calls lost to injected faults; each rejects its
     *  candidate, so synthesis degrades to a smaller rule set. */
    std::size_t verifierFaults = 0;
};

/** Runs the full offline pipeline for @p isa. */
SynthReport synthesizeRules(const IsaSpec &isa, const SynthConfig &config);

/**
 * The configuration synthesis actually runs under for @p isa:
 * machine-derived fields are forced from the spec — today that is
 * VerifyOptions::defaultWidth, which must equal the ISA's lane width
 * or lane generalization and verification would sample at different
 * widths. Both synthesizeRules() and synthFingerprint() go through
 * this, so the cache key always describes the effective run.
 */
SynthConfig effectiveSynthConfig(const IsaSpec &isa, SynthConfig config);

/**
 * Lane generalization (§3.1): expands every 1-wide Vec literal of the
 * pattern to @p width lanes, renaming the scalar wildcards of each
 * lane to fresh ids (consistently across all Vec literals, so shared
 * wildcards stay shared per lane). Patterns without vector operators
 * pass through unchanged.
 */
RecExpr generalizeToWidth(const RecExpr &pattern, int width);

/** Generalizes both sides of a rule. */
Rule generalizeRule(const Rule &rule, int width);

} // namespace isaria

#endif // ISARIA_SYNTH_SYNTHESIZE_H
