#include "support/fault.h"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "support/hash.h"

namespace isaria
{

namespace
{

/** Process-wide armed plan + per-site arrival counters. */
struct FaultState
{
    /** Fast-path gate: false means every check is one load. */
    std::atomic<bool> armed{false};
    FaultPlan plan;
    std::atomic<std::uint64_t> arrivals[kNumFaultSites];
};

FaultState &
state()
{
    static FaultState s;
    return s;
}

/** Arms the plan from ISARIA_FAULT exactly once, if present. */
void
initFromEnvOnce()
{
    static std::once_flag once;
    std::call_once(once, [] {
        const char *env = std::getenv("ISARIA_FAULT");
        if (!env || !*env)
            return;
        auto parsed = FaultPlan::parse(env);
        if (!parsed.ok()) {
            std::fprintf(stderr,
                         "warning: ignoring malformed ISARIA_FAULT: %s\n",
                         parsed.error().toString().c_str());
            return;
        }
        setFaultPlan(parsed.value());
    });
}

bool
parseU64(std::string_view text, std::uint64_t &out)
{
    auto res = std::from_chars(text.data(), text.data() + text.size(), out);
    return res.ec == std::errc() && res.ptr == text.data() + text.size();
}

} // namespace

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::EGraphAlloc: return "egraph-alloc";
      case FaultSite::ShardSearch: return "shard-search";
      case FaultSite::Rebuild: return "rebuild";
      case FaultSite::SynthVerify: return "synth-verify";
      case FaultSite::RuleParse: return "rule-parse";
      case FaultSite::EGraphMetrics: return "egraph-metrics";
      case FaultSite::NumSites: break;
    }
    return "?";
}

std::optional<FaultSite>
faultSiteFromName(std::string_view name)
{
    for (std::size_t i = 0; i < kNumFaultSites; ++i) {
        FaultSite site = static_cast<FaultSite>(i);
        if (name == faultSiteName(site))
            return site;
    }
    return std::nullopt;
}

FaultInjected::FaultInjected(FaultSite site)
    : site_(site),
      message_(std::string("injected fault at ") + faultSiteName(site))
{}

Result<FaultPlan>
FaultPlan::parse(std::string_view spec)
{
    FaultPlan plan;
    while (!spec.empty()) {
        std::size_t comma = spec.find(',');
        std::string_view item = spec.substr(0, comma);
        spec = comma == std::string_view::npos ? std::string_view{}
                                               : spec.substr(comma + 1);
        if (item.empty())
            continue;

        std::size_t colon = item.find(':');
        if (colon == std::string_view::npos)
            return Error{"fault spec missing ':' in '" +
                         std::string(item) + "'"};
        auto site = faultSiteFromName(item.substr(0, colon));
        if (!site)
            return Error{"unknown fault site '" +
                         std::string(item.substr(0, colon)) + "'"};

        SiteSpec &out = plan.sites[static_cast<std::size_t>(*site)];
        std::string_view trigger = item.substr(colon + 1);
        std::size_t slash = trigger.find('/');
        if (slash == std::string_view::npos) {
            // One-shot ordinal: "site:N".
            std::uint64_t n = 0;
            if (!parseU64(trigger, n) || n == 0)
                return Error{"bad fault ordinal '" +
                             std::string(trigger) + "' (want N >= 1)"};
            out.armed = true;
            out.ordinal = n;
            continue;
        }
        // Seeded coin: "site:N/D@SEED".
        std::size_t at = trigger.find('@', slash);
        if (at == std::string_view::npos)
            return Error{"seeded fault spec missing '@SEED' in '" +
                         std::string(trigger) + "'"};
        std::uint64_t numer = 0, denom = 0, seed = 0;
        if (!parseU64(trigger.substr(0, slash), numer) ||
            !parseU64(trigger.substr(slash + 1, at - slash - 1), denom) ||
            !parseU64(trigger.substr(at + 1), seed) || denom == 0) {
            return Error{"bad seeded fault spec '" + std::string(trigger) +
                         "' (want N/D@SEED with D >= 1)"};
        }
        out.armed = true;
        out.numer = numer;
        out.denom = denom;
        out.seed = seed;
    }
    return plan;
}

void
setFaultPlan(const FaultPlan &plan)
{
    FaultState &s = state();
    s.plan = plan;
    bool any = false;
    for (std::size_t i = 0; i < kNumFaultSites; ++i) {
        s.arrivals[i].store(0, std::memory_order_relaxed);
        any |= plan.sites[i].armed;
    }
    s.armed.store(any, std::memory_order_release);
}

void
clearFaultPlan()
{
    setFaultPlan(FaultPlan{});
}

bool
faultPlanActive()
{
    initFromEnvOnce();
    return state().armed.load(std::memory_order_acquire);
}

bool
faultShouldFire(FaultSite site)
{
    FaultState &s = state();
    if (!s.armed.load(std::memory_order_relaxed)) {
        // One extra acquire load the first few times, until the env
        // plan (if any) is armed.
        initFromEnvOnce();
        if (!s.armed.load(std::memory_order_acquire))
            return false;
    }
    std::size_t index = static_cast<std::size_t>(site);
    const FaultPlan::SiteSpec &spec = s.plan.sites[index];
    if (!spec.armed)
        return false;
    // Arrival ordinals are 1-based: exactly one thread observes each.
    std::uint64_t n =
        s.arrivals[index].fetch_add(1, std::memory_order_relaxed) + 1;
    if (spec.ordinal != 0)
        return n == spec.ordinal;
    return hashMix(spec.seed ^ n) % spec.denom < spec.numer;
}

} // namespace isaria
