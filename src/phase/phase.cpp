#include "phase/phase.h"

#include "obs/obs.h"

namespace isaria
{

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Expansion: return "expansion";
      case Phase::Compilation: return "compilation";
      case Phase::Optimization: return "optimization";
    }
    return "?";
}

namespace
{

PhasedRule
scoreRule(const Rule &rule, const DspCostModel &cost)
{
    auto lhs = static_cast<std::int64_t>(cost.exprCost(rule.lhs));
    auto rhs = static_cast<std::int64_t>(cost.exprCost(rule.rhs));
    PhasedRule out;
    out.rule = rule;
    out.costDifferential = lhs - rhs;
    out.aggregateCost = lhs + rhs;
    const CostParams &p = cost.params();
    if (out.costDifferential > p.alpha)
        out.phase = Phase::Compilation;
    else if (out.aggregateCost > p.beta)
        out.phase = Phase::Expansion;
    else
        out.phase = Phase::Optimization;
    return out;
}

} // namespace

std::vector<Rule>
PhasedRules::ofPhase(Phase phase) const
{
    std::vector<Rule> out;
    for (const PhasedRule &pr : all) {
        if (pr.phase == phase)
            out.push_back(pr.rule);
    }
    return out;
}

std::size_t
PhasedRules::countOf(Phase phase) const
{
    std::size_t count = 0;
    for (const PhasedRule &pr : all)
        count += pr.phase == phase;
    return count;
}

std::string
PhasedRules::toCsv() const
{
    std::string out = "name,phase,aggregate_cost,cost_differential\n";
    for (const PhasedRule &pr : all) {
        out += pr.rule.name;
        out += ',';
        out += phaseName(pr.phase);
        out += ',';
        out += std::to_string(pr.aggregateCost);
        out += ',';
        out += std::to_string(pr.costDifferential);
        out += '\n';
    }
    return out;
}

PhasedRules
assignPhases(const RuleSet &rules, const DspCostModel &cost)
{
    obs::Span span("phase/assign",
                   static_cast<std::int64_t>(rules.size()));
    PhasedRules out;
    out.all.reserve(rules.size());
    for (const Rule &rule : rules.rules())
        out.all.push_back(scoreRule(rule, cost));
    return out;
}

Phase
phaseOf(const Rule &rule, const DspCostModel &cost)
{
    return scoreRule(rule, cost).phase;
}

} // namespace isaria
