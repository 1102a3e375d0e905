#include "cache/rule_cache.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "support/hash.h"

namespace isaria
{

namespace
{

constexpr const char *kMagic = "isaria-rule-cache";
constexpr const char *kEndMarker = "[end]";

/** Folds one scalar into the fingerprint. */
void
mix(std::size_t &seed, std::uint64_t value)
{
    hashCombine(seed, static_cast<std::size_t>(value));
}

void
mix(std::size_t &seed, std::int64_t value)
{
    mix(seed, static_cast<std::uint64_t>(value));
}

void
mix(std::size_t &seed, int value)
{
    mix(seed, static_cast<std::uint64_t>(static_cast<std::int64_t>(value)));
}

void
mix(std::size_t &seed, bool value)
{
    mix(seed, static_cast<std::uint64_t>(value ? 1 : 0));
}

/** Doubles are fingerprinted by bit pattern: any change in a budget
 *  is a different configuration, and no rounding ambiguity exists. */
void
mix(std::size_t &seed, double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    mix(seed, bits);
}

std::string
hex(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::optional<Phase>
parsePhase(const std::string &name)
{
    if (name == phaseName(Phase::Expansion))
        return Phase::Expansion;
    if (name == phaseName(Phase::Compilation))
        return Phase::Compilation;
    if (name == phaseName(Phase::Optimization))
        return Phase::Optimization;
    return std::nullopt;
}

/** Folds a full cost table into the fingerprint. */
void
mixCostParams(std::size_t &seed, const CostParams &cp)
{
    mix(seed, cp.leaf);
    mix(seed, cp.scalarAlu);
    mix(seed, cp.scalarDiv);
    mix(seed, cp.scalarSqrt);
    mix(seed, cp.scalarMulSub);
    mix(seed, cp.scalarSqrtSgn);
    mix(seed, cp.vecAlu);
    mix(seed, cp.vecDiv);
    mix(seed, cp.vecSqrt);
    mix(seed, cp.vecMac);
    mix(seed, cp.vecSqrtSgn);
    mix(seed, cp.laneMove);
    mix(seed, cp.vecBase);
    mix(seed, cp.concat);
    mix(seed, cp.listBase);
    mix(seed, cp.alpha);
    mix(seed, cp.beta);
}

std::uint64_t
synthFingerprintImpl(const IsaSpec &isa, const SynthConfig &config)
{
    std::size_t seed = 0x15A21AC4C8Eull;
    mix(seed, kRuleCacheSchemaVersion);

    // The *entire* machine description, not just width plus the two
    // custom-op flags: two same-width machines differing in family,
    // op set, cost table, latency table, or issue shape must never
    // share a cache entry.
    const MachineDesc &m = isa.machine();
    mix(seed, m.family.size());
    for (char c : m.family)
        mix(seed, static_cast<std::uint64_t>(
                      static_cast<unsigned char>(c)));
    mix(seed, m.vectorWidth);
    mix(seed, isa.scalarOps().size());
    for (Op op : isa.scalarOps())
        mix(seed, static_cast<std::uint64_t>(op));
    mix(seed, isa.vectorOps().size());
    for (Op op : isa.vectorOps())
        mix(seed, static_cast<std::uint64_t>(op));
    mixCostParams(seed, m.cost);
    const LatencyModel &lat = m.latency;
    mix(seed, lat.dualIssue);
    mix(seed, lat.scalarAlu);
    mix(seed, lat.scalarDiv);
    mix(seed, lat.scalarSqrt);
    mix(seed, lat.scalarSgn);
    mix(seed, lat.scalarNeg);
    mix(seed, lat.vectorAlu);
    mix(seed, lat.vectorDiv);
    mix(seed, lat.vectorSqrt);
    mix(seed, lat.load);
    mix(seed, lat.insertLane);
    mix(seed, lat.loadConst);
    mix(seed, lat.store);

    const EnumConfig &ec = config.enumConfig;
    mix(seed, ec.numScalarVars);
    mix(seed, ec.numVectorVars);
    mix(seed, ec.constants.size());
    for (std::int64_t c : ec.constants)
        mix(seed, c);
    mix(seed, ec.maxDepth);
    mix(seed, ec.maxReps);
    mix(seed, ec.maxScalarCandidates);
    mix(seed, ec.maxVectorCandidates);
    mix(seed, ec.maxLiftCandidates);
    mix(seed, ec.maxTerms);
    mix(seed, ec.numEnvs);
    mix(seed, ec.seed);

    const VerifyOptions &vo = config.verify;
    mix(seed, vo.samples);
    mix(seed, vo.minDefined);
    mix(seed, vo.defaultWidth);
    mix(seed, vo.seed);

    mix(seed, config.timeoutSeconds);
    mix(seed, config.maxRules);
    mix(seed, config.batchSize);
    mix(seed, config.keepShortcutCandidates);

    const EqSatLimits &dl = config.derivLimits;
    mix(seed, dl.maxNodes);
    mix(seed, dl.maxBytes);
    mix(seed, dl.maxIters);
    mix(seed, dl.timeoutSeconds);
    mix(seed, dl.maxMatchesPerRule);
    mix(seed, dl.maxMatchesPerClass);
    mix(seed, dl.maxSearchStepsPerRule);
    // derivLimits.numThreads and config.numThreads are *not* mixed:
    // results are byte-identical at any thread count.

    mixCostParams(seed, config.costParams);

    return static_cast<std::uint64_t>(seed);
}

} // namespace

std::uint64_t
synthFingerprint(const IsaSpec &isa, const SynthConfig &config)
{
    // Fingerprint the configuration synthesis would actually run
    // under: machine-derived fields (the verifier's sampling width)
    // are forced from the spec first, exactly as synthesizeRules
    // does, so the cache key can never describe a run that differs
    // from the one that produced the entry.
    return synthFingerprintImpl(isa, effectiveSynthConfig(isa, config));
}

std::string
encodeCacheEntry(std::uint64_t fingerprint, const CachedSynth &entry)
{
    std::string out;
    out += kMagic;
    out += ' ';
    out += std::to_string(kRuleCacheSchemaVersion);
    out += '\n';
    out += "fingerprint ";
    out += hex(fingerprint);
    out += '\n';
    out += "[onewide]\n";
    out += entry.oneWideRules.toString();
    out += "[rules]\n";
    out += entry.rules.toString();
    out += "[phases]\n";
    for (std::size_t i = 0; i < entry.phases.size(); ++i) {
        out += entry.rules[i].name;
        out += ' ';
        out += phaseName(entry.phases[i]);
        out += '\n';
    }
    out += kEndMarker;
    out += '\n';
    return out;
}

Result<CachedSynth>
decodeCacheEntry(const std::string &text, std::uint64_t fingerprint)
{
    std::istringstream in(text);
    std::string line;
    int lineNo = 0;
    auto next = [&](std::string &out) {
        if (!std::getline(in, out))
            return false;
        ++lineNo;
        return true;
    };

    if (!next(line) ||
        line != std::string(kMagic) + " " +
                    std::to_string(kRuleCacheSchemaVersion)) {
        return Error{"not a rule-cache file (or stale schema version)",
                     lineNo};
    }
    if (!next(line) || line.rfind("fingerprint ", 0) != 0)
        return Error{"missing fingerprint header", lineNo};
    if (line.substr(12) != hex(fingerprint)) {
        return Error{"stale entry: fingerprint " + line.substr(12) +
                         " does not match expected " + hex(fingerprint),
                     lineNo};
    }
    if (!next(line) || line != "[onewide]")
        return Error{"missing [onewide] section", lineNo};

    // Collect each section's lines, then let RuleSet::parse do the
    // real validation (it rejects garbage with line diagnostics).
    std::string oneWideText;
    while (next(line) && line != "[rules]")
        oneWideText += line + '\n';
    if (line != "[rules]")
        return Error{"truncated before [rules] section", lineNo};
    std::string rulesText;
    while (next(line) && line != "[phases]")
        rulesText += line + '\n';
    if (line != "[phases]")
        return Error{"truncated before [phases] section", lineNo};

    CachedSynth entry;
    Result<RuleSet> oneWide = RuleSet::parse(oneWideText);
    if (!oneWide)
        return Error{"[onewide] section: " + oneWide.error().toString(),
                     0};
    entry.oneWideRules = oneWide.take();
    Result<RuleSet> rules = RuleSet::parse(rulesText);
    if (!rules)
        return Error{"[rules] section: " + rules.error().toString(), 0};
    entry.rules = rules.take();

    bool sawEnd = false;
    while (next(line)) {
        if (line == kEndMarker) {
            sawEnd = true;
            break;
        }
        std::size_t space = line.rfind(' ');
        if (space == std::string::npos)
            return Error{"malformed phase line: " + line, lineNo};
        std::string name = line.substr(0, space);
        std::optional<Phase> phase = parsePhase(line.substr(space + 1));
        if (!phase)
            return Error{"unknown phase in: " + line, lineNo};
        std::size_t index = entry.phases.size();
        if (index >= entry.rules.size() ||
            entry.rules[index].name != name) {
            return Error{"phase line out of step with [rules]: " + line,
                         lineNo};
        }
        entry.phases.push_back(*phase);
    }
    if (!sawEnd)
        return Error{"truncated: no end marker", lineNo};
    if (entry.phases.size() != entry.rules.size()) {
        return Error{"phase count " + std::to_string(entry.phases.size()) +
                         " does not cover " +
                         std::to_string(entry.rules.size()) + " rules",
                     lineNo};
    }
    return entry;
}

RuleCache::RuleCache(std::string dir) : dir_(std::move(dir)) {}

RuleCache
RuleCache::fromEnv()
{
    const char *dir = std::getenv("ISARIA_CACHE");
    return RuleCache(dir ? dir : "");
}

std::string
RuleCache::entryPath(const IsaSpec &isa, std::uint64_t fingerprint) const
{
    return dir_ + "/" + isa.name() + "-" + hex(fingerprint) +
           ".rulecache";
}

CacheProbe
RuleCache::load(const IsaSpec &isa, std::uint64_t fingerprint) const
{
    CacheProbe probe;
    if (!enabled())
        return probe;
    std::string path = entryPath(isa, fingerprint);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return probe; // clean miss: no entry yet
    std::ostringstream buf;
    buf << in.rdbuf();
    Result<CachedSynth> decoded = decodeCacheEntry(buf.str(), fingerprint);
    if (!decoded) {
        // Corrupt or stale: a miss with a diagnostic, never an abort.
        probe.diagnostic = path + ": " + decoded.error().toString();
        obs::counter("synth/cache/corrupt", 1);
        static const obs::CounterHandle corruptMetric =
            obs::metricCounter("synth/cache/corrupt");
        obs::metricAdd(corruptMetric);
        return probe;
    }
    probe.entry = decoded.take();
    return probe;
}

Result<std::string>
RuleCache::store(const IsaSpec &isa, std::uint64_t fingerprint,
                 const CachedSynth &entry) const
{
    if (!enabled())
        return Error{"rule cache disabled (no directory configured)"};
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        return Error{"cannot create cache directory " + dir_ + ": " +
                     ec.message()};
    std::string path = entryPath(isa, fingerprint);
    // Atomic publish: write under a temporary name, rename into place.
    // rename(2) is atomic within a filesystem, so readers only ever
    // see absent or complete entries, even across crashed writers.
    std::string tmp = path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return Error{"cannot write cache entry " + tmp};
        out << encodeCacheEntry(fingerprint, entry);
        out.flush();
        if (!out) {
            std::remove(tmp.c_str());
            return Error{"short write to cache entry " + tmp};
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Error{"cannot publish cache entry " + path};
    }
    obs::counter("synth/cache/store", 1);
    static const obs::CounterHandle storeMetric =
        obs::metricCounter("synth/cache/store");
    obs::metricAdd(storeMetric);
    return path;
}

SynthReport
synthesizeRulesCached(const IsaSpec &isa, const SynthConfig &config,
                      const RuleCache &cache)
{
    if (!cache.enabled())
        return synthesizeRules(isa, config);

    std::uint64_t fp = synthFingerprint(isa, config);
    CacheProbe probe = cache.load(isa, fp);
    if (probe.hit()) {
        obs::counter("synth/cache/hit", 1);
        static const obs::CounterHandle hitMetric =
            obs::metricCounter("synth/cache/hit");
        obs::metricAdd(hitMetric);
        SynthReport report;
        report.fromCache = true;
        report.oneWideRules = std::move(probe.entry->oneWideRules);
        report.rules = std::move(probe.entry->rules);
        return report;
    }
    obs::counter("synth/cache/miss", 1);
    static const obs::CounterHandle missMetric =
        obs::metricCounter("synth/cache/miss");
    obs::metricAdd(missMetric);

    SynthReport report = synthesizeRules(isa, config);
    // A deadline-cut run is a partial rule set; caching it would pin
    // the truncation forever. Only complete runs are published.
    if (!report.hitDeadline) {
        CachedSynth entry;
        entry.oneWideRules = report.oneWideRules;
        entry.rules = report.rules;
        PhasedRules phased =
            assignPhases(report.rules, DspCostModel(config.costParams));
        entry.phases.reserve(phased.all.size());
        for (const PhasedRule &pr : phased.all)
            entry.phases.push_back(pr.phase);
        cache.store(isa, fp, entry); // best-effort: a failed store
                                     // costs nothing but the warm path
    }
    return report;
}

} // namespace isaria
