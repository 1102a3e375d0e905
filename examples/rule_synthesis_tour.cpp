// A tour of the offline pipeline: watch rule synthesis discover the
// vectorization rules of Section 2 from nothing but the ISA's
// interpreter, then see the cost-based analysis sort them into the
// three phases of Section 3.2.
//
// Usage: rule_synthesis_tour [--cache-dir=DIR]
//
// --cache-dir=DIR persists the synthesized rule set under DIR
// (defaults to $ISARIA_CACHE when set); rerunning the tour with an
// unchanged configuration then skips synthesis entirely.

#include <cstdio>
#include <string>

#include "cache/rule_cache.h"
#include "phase/phase.h"
#include "synth/synthesize.h"
#include "support/panic.h"

using namespace isaria;

int
main(int argc, char **argv)
{
    return guardedMain([&] {
    IsaSpec isa;
    SynthConfig config;
    config.timeoutSeconds = 20;
    RuleCache cache = RuleCache::fromEnv();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--cache-dir=", 0) == 0) {
            cache = RuleCache(arg.substr(12));
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return 1;
        }
    }

    std::printf("Synthesizing rewrite rules for '%s' from its "
                "interpreter...\n",
                isa.name().c_str());
    SynthReport report = synthesizeRulesCached(isa, config, cache);
    if (report.fromCache)
        std::printf("  (served from cache dir %s — delete the entry "
                    "to re-synthesize)\n",
                    cache.dir().c_str());
    std::printf("  terms enumerated:      %zu (work bound %zu)\n",
                report.termsEnumerated, config.enumConfig.maxTerms);
    std::printf("  candidates considered: %zu\n",
                report.candidatesConsidered);
    std::printf("  rejected as unsound:   %zu\n", report.rejectedUnsound);
    std::printf("  pruned as derivable:   %zu\n", report.prunedDerivable);
    std::printf("  rules kept:            %zu (1-wide), %zu after lane "
                "generalization\n",
                report.oneWideRules.size(), report.rules.size());
    std::printf("  time: enumerate %.1fs, shrink %.1fs, generalize "
                "%.1fs\n\n",
                report.enumerateSeconds, report.shrinkSeconds,
                report.generalizeSeconds);
    if (report.hitDeadline)
        std::printf("  the %.0fs safety net cut this run: its rules "
                    "depend on the clock and were not cached\n\n",
                    config.timeoutSeconds);

    DspCostModel cost;
    PhasedRules phased = assignPhases(report.rules, cost);
    std::printf("Phase discovery (alpha=%lld, beta=%lld):\n",
                static_cast<long long>(cost.params().alpha),
                static_cast<long long>(cost.params().beta));

    for (Phase phase : {Phase::Expansion, Phase::Compilation,
                        Phase::Optimization}) {
        std::printf("\n=== %s (%zu rules) — examples:\n",
                    phaseName(phase), phased.countOf(phase));
        int shown = 0;
        for (const PhasedRule &pr : phased.all) {
            if (pr.phase != phase || shown >= 6)
                continue;
            ++shown;
            std::printf("  [CD=%4lld CA=%4lld] %s\n",
                        static_cast<long long>(pr.costDifferential),
                        static_cast<long long>(pr.aggregateCost),
                        pr.rule.toString().c_str());
        }
    }

    std::printf("\nProved vs tested: ");
    std::size_t proved = 0;
    for (const Rule &rule : report.rules.rules())
        proved += rule.verifiedExactly;
    std::printf("%zu rules proved by polynomial normalization, %zu "
                "validated by exact-rational sampling.\n",
                proved, report.rules.size() - proved);
    return 0;
    });
}
