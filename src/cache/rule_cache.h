#ifndef ISARIA_CACHE_RULE_CACHE_H
#define ISARIA_CACHE_RULE_CACHE_H

/**
 * @file
 * Persistent, content-addressed cache for the offline pipeline.
 *
 * Rule synthesis is the expensive half of Fig. 2 — seconds to minutes
 * of enumeration, verification, and derivability pruning — yet its
 * output is a pure function of (ISA spec, cost-model parameters,
 * synthesis configuration, code version). The cache keys an entry on a
 * fingerprint of exactly those inputs and stores the synthesized rule
 * sets plus their phase assignments, so a re-run with an unchanged
 * configuration costs one file read instead of a synthesis run.
 *
 * Robustness rules:
 *  - Writes are atomic: the entry is written to a temporary file in
 *    the cache directory and renamed into place, so a crashed or
 *    concurrent writer can never leave a half-written entry under the
 *    final name.
 *  - Loads are corruption-tolerant: a truncated, garbled, or
 *    stale-fingerprint file is a *miss with a diagnostic*, never an
 *    abort — the pipeline falls back to synthesizing from scratch.
 *  - The fingerprint deliberately excludes thread counts. The rule set
 *    is a function of the ISA and the config: every decision that
 *    shapes it is bounded by work, so it is byte-identical at any
 *    thread count (see SynthConfig), and an entry written by a
 *    parallel run serves a sequential one and vice versa. The clock
 *    can only cut a run short; a cut run is marked
 *    SynthReport::hitDeadline and never stored.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/isa_spec.h"
#include "phase/phase.h"
#include "support/result.h"
#include "synth/synthesize.h"

namespace isaria
{

/** Bump whenever the on-disk format *or* any synthesis semantics
 *  change — a stale schema silently serving old rules is the one
 *  corruption the parser cannot detect by itself. */
constexpr std::uint64_t kRuleCacheSchemaVersion = 2;

/**
 * Fingerprint of everything the synthesized rule set depends on:
 * schema version, ISA configuration, enumeration grammar and budgets,
 * verifier battery, shrink/generalization knobs, and the cost-model
 * parameters (they steer shortcut retention and phase thresholds).
 * Thread counts are excluded by design (see file comment).
 */
std::uint64_t synthFingerprint(const IsaSpec &isa,
                               const SynthConfig &config);

/** One cache entry: the rule sets plus per-rule phase assignments. */
struct CachedSynth
{
    /** Rules over the single-lane reduction (pre-generalization). */
    RuleSet oneWideRules;
    /** Rules generalized to the ISA width — the compiler's rule set. */
    RuleSet rules;
    /** Phase of rules[i] under the fingerprinted cost parameters. */
    std::vector<Phase> phases;
};

/** Outcome of a cache probe. */
struct CacheProbe
{
    /** The entry, when the probe hit. */
    std::optional<CachedSynth> entry;
    /** Why an existing file was rejected (stale fingerprint,
     *  truncation, parse failure); empty on a hit or a clean miss. */
    std::string diagnostic;

    bool hit() const { return entry.has_value(); }
};

/**
 * A directory of cache entries, one file per (ISA, fingerprint).
 * Copyable and stateless beyond the directory path.
 */
class RuleCache
{
  public:
    /** An empty @p dir disables the cache (probes miss, stores drop). */
    explicit RuleCache(std::string dir = "");

    /**
     * Cache rooted at $ISARIA_CACHE, disabled when the variable is
     * unset or empty. CLI flags should override this default.
     */
    static RuleCache fromEnv();

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /** Full path of the entry file for @p isa / @p fingerprint. */
    std::string entryPath(const IsaSpec &isa,
                          std::uint64_t fingerprint) const;

    /**
     * Probes the cache. Missing file = clean miss; unreadable, stale,
     * or corrupt file = miss with a diagnostic. Never throws, never
     * aborts on bad cache contents.
     */
    CacheProbe load(const IsaSpec &isa, std::uint64_t fingerprint) const;

    /**
     * Writes @p entry atomically (temp file + rename). Returns the
     * final path, or an Error when the directory cannot be created or
     * the write fails. A disabled cache reports an Error too — callers
     * gate on enabled().
     */
    Result<std::string> store(const IsaSpec &isa,
                              std::uint64_t fingerprint,
                              const CachedSynth &entry) const;

  private:
    std::string dir_;
};

/**
 * Serializes @p entry in the on-disk format (exposed for tests).
 * The format is line-oriented text with the fingerprint in the header
 * and an explicit end marker, so truncation is always detectable.
 */
std::string encodeCacheEntry(std::uint64_t fingerprint,
                             const CachedSynth &entry);

/** Parses @p text, requiring @p fingerprint to match the header. */
Result<CachedSynth> decodeCacheEntry(const std::string &text,
                                     std::uint64_t fingerprint);

/**
 * Cache-aware synthesis: probes @p cache, returning a report with
 * SynthReport::fromCache set on a hit (no enumeration or verification
 * runs — the warm path emits no synth/enumerate span); on a miss it
 * runs synthesizeRules and stores the result (with phase assignments
 * under config.costParams). With a disabled cache this is exactly
 * synthesizeRules.
 */
SynthReport synthesizeRulesCached(const IsaSpec &isa,
                                  const SynthConfig &config,
                                  const RuleCache &cache);

} // namespace isaria

#endif // ISARIA_CACHE_RULE_CACHE_H
