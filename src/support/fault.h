#ifndef ISARIA_SUPPORT_FAULT_H
#define ISARIA_SUPPORT_FAULT_H

/**
 * @file
 * Deterministic fault injection for chaos-testing the pipeline.
 *
 * Every recoverable failure path in Isaria — e-graph allocation
 * refusing memory, a search shard dying, rebuild failing, the
 * synthesis verifier erroring, a rules file failing to parse — has a
 * named *injection site*. A FaultPlan arms some sites so that chosen
 * arrivals fail, which is how the chaos tests prove each stage
 * degrades cleanly instead of aborting.
 *
 * Triggering is deterministic. Each site keeps an atomic arrival
 * counter; a spec either names one arrival ordinal ("the n-th hit
 * fails") or a seeded per-arrival coin ("each hit fails with
 * probability p, decided by hashing seed ^ ordinal"), so a plan
 * produces the same failures run after run — and, because the effect
 * of a fired fault is always "abandon this phase deterministically",
 * the same degraded output at any thread count.
 *
 * Spec grammar (ISARIA_FAULT environment variable or --fault):
 *
 *   plan  := spec (',' spec)*
 *   spec  := site ':' N            // the N-th arrival fails (1-based)
 *          | site ':' N '/' D '@' SEED   // each arrival fails iff
 *                                        // hash(SEED^ordinal) % D < N
 *   site  := egraph-alloc | shard-search | rebuild
 *          | synth-verify | rule-parse | egraph-metrics
 *
 * The disabled path costs one relaxed atomic load per site check.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/panic.h"
#include "support/result.h"

namespace isaria
{

/** Where a fault can be injected. Keep names in faultSiteName. */
enum class FaultSite
{
    /** EGraph::add — a simulated allocation failure. */
    EGraphAlloc,
    /** One (rule, shard) search task of the parallel search phase. */
    ShardSearch,
    /** EGraph::rebuild as driven by the saturation runner. */
    Rebuild,
    /** One verifyRule call inside rule synthesis. */
    SynthVerify,
    /** Rules-file loading. */
    RuleParse,
    /** The saturation loop's per-iteration metrics sampling point —
     *  proves a telemetry failure degrades like any other
     *  mid-iteration fault instead of aborting the compile. */
    EGraphMetrics,
    NumSites,
};

inline constexpr std::size_t kNumFaultSites =
    static_cast<std::size_t>(FaultSite::NumSites);

/** Stable human-readable site name (the spec grammar's `site`). */
const char *faultSiteName(FaultSite site);

/** Inverse of faultSiteName. */
std::optional<FaultSite> faultSiteFromName(std::string_view name);

/** The exception a fired injection site raises. */
class FaultInjected : public std::exception
{
  public:
    explicit FaultInjected(FaultSite site);

    FaultSite site() const { return site_; }
    const char *what() const noexcept override { return message_.c_str(); }

  private:
    FaultSite site_;
    std::string message_;
};

/** An armed set of sites (parsed from the spec grammar above). */
struct FaultPlan
{
    struct SiteSpec
    {
        bool armed = false;
        /** One-shot ordinal (0 = not ordinal-triggered). */
        std::uint64_t ordinal = 0;
        /** Seeded coin: fire iff hash(seed^n) % denom < numer. */
        std::uint64_t numer = 0;
        std::uint64_t denom = 0;
        std::uint64_t seed = 0;
    };

    SiteSpec sites[kNumFaultSites];

    /** Parses the spec grammar; diagnostics name the bad token. */
    static Result<FaultPlan> parse(std::string_view spec);
};

/**
 * Installs @p plan process-wide and resets all arrival counters.
 * Passing a default-constructed plan disarms every site.
 */
void setFaultPlan(const FaultPlan &plan);

/** Disarms all sites (counters keep running; cheap). */
void clearFaultPlan();

/**
 * True when fault injection is armed at any site — either via
 * setFaultPlan or the ISARIA_FAULT environment variable (parsed
 * lazily on first use; a malformed value disarms with a warning).
 */
bool faultPlanActive();

/**
 * Records one arrival at @p site and reports whether it must fail.
 * Thread-safe; the n-th arrival fires exactly once across threads.
 */
bool faultShouldFire(FaultSite site);

/** Throw-style injection point for exception-reporting sites. */
inline void
faultPoint(FaultSite site)
{
    if (faultShouldFire(site))
        throw FaultInjected(site);
}

} // namespace isaria

#endif // ISARIA_SUPPORT_FAULT_H
