// Tests for the persistent rule cache (src/cache/) and the in-memory
// compile memo: fingerprint stability and sensitivity, the on-disk
// codec, atomic store / corruption-tolerant load, the warm synthesis
// path running zero enumeration or verification, and memoized
// compiles.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "cache/rule_cache.h"
#include "compiler/memo.h"
#include "compiler/pipeline.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "term/sexpr.h"

namespace isaria
{
namespace
{

/** Very small synthesis configuration: cache tests run it twice. */
SynthConfig
tinyConfig()
{
    SynthConfig config;
    config.timeoutSeconds = 0; // unlimited: deadline-cut runs are not cached
    config.maxRules = 25;
    config.enumConfig.maxDepth = 2;
    config.enumConfig.maxReps = 30;
    config.enumConfig.maxScalarCandidates = 300;
    config.enumConfig.maxVectorCandidates = 400;
    config.enumConfig.maxLiftCandidates = 400;
    return config;
}

/** A hand-built entry exercising names, flags, and phases. */
CachedSynth
sampleEntry()
{
    CachedSynth entry;
    Rule ow = parseRule("(+ ?a 0) ~> ?a");
    ow.name = "syn1w-0";
    ow.verifiedExactly = true;
    entry.oneWideRules.add(ow);

    Rule a = parseRule("?a ~> (+ ?a 0)");
    a.name = "syn-0";
    a.verifiedExactly = true;
    entry.rules.add(a);
    Rule b = parseRule("(Vec (+ ?a0 ?b0)) ~> (VecAdd (Vec ?a0) (Vec ?b0))");
    b.name = "syn-1";
    entry.rules.add(b);
    entry.phases = {Phase::Expansion, Phase::Compilation};
    return entry;
}

/** Fresh scratch directory under the test temp root. Entries are
 *  content-addressed and deterministic, so leftovers from a previous
 *  run would turn expected misses into hits. */
std::string
scratchDir(const std::string &name)
{
    std::string dir = testing::TempDir() + "isaria_cache_test_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::uint64_t
spanCount(const obs::StatsReport &report, const std::string &name)
{
    for (const obs::StatsEntry &entry : report.spans)
        if (entry.name == name)
            return entry.count;
    return 0;
}

std::int64_t
counterSum(const obs::StatsReport &report, const std::string &name)
{
    for (const obs::StatsEntry &entry : report.counters)
        if (entry.name == name)
            return entry.sum;
    return 0;
}

// ---------------------------------------------------------------------
// Fingerprinting.

TEST(Fingerprint, StableAndThreadCountIndependent)
{
    IsaSpec isa;
    SynthConfig config = tinyConfig();
    std::uint64_t base = synthFingerprint(isa, config);
    EXPECT_EQ(base, synthFingerprint(isa, config));

    // The whole point of deterministic parallel synthesis: an entry
    // written by a 4-thread run must serve a 1-thread run.
    SynthConfig threaded = config;
    threaded.numThreads = 4;
    threaded.derivLimits.numThreads = 4;
    EXPECT_EQ(base, synthFingerprint(isa, threaded));
}

TEST(Fingerprint, SensitiveToEveryInputFamily)
{
    IsaSpec isa;
    SynthConfig config = tinyConfig();
    std::uint64_t base = synthFingerprint(isa, config);

    IsaConfig wide;
    wide.vectorWidth = 8;
    EXPECT_NE(base, synthFingerprint(IsaSpec(wide), config));

    IsaConfig custom;
    custom.enableMulSub = true;
    EXPECT_NE(base, synthFingerprint(IsaSpec(custom), config));

    SynthConfig c = config;
    c.enumConfig.seed ^= 1;
    EXPECT_NE(base, synthFingerprint(isa, c));

    c = config;
    c.enumConfig.constants.push_back(2);
    EXPECT_NE(base, synthFingerprint(isa, c));

    c = config;
    c.enumConfig.maxTerms += 1;
    EXPECT_NE(base, synthFingerprint(isa, c));

    c = config;
    c.verify.samples += 1;
    EXPECT_NE(base, synthFingerprint(isa, c));

    c = config;
    c.timeoutSeconds = 30;
    EXPECT_NE(base, synthFingerprint(isa, c));

    c = config;
    c.costParams.alpha += 1;
    EXPECT_NE(base, synthFingerprint(isa, c));

    c = config;
    c.keepShortcutCandidates = !c.keepShortcutCandidates;
    EXPECT_NE(base, synthFingerprint(isa, c));
}

// ---------------------------------------------------------------------
// The on-disk codec.

TEST(CacheCodec, RoundTrips)
{
    CachedSynth entry = sampleEntry();
    std::string text = encodeCacheEntry(0xDEADBEEFull, entry);
    Result<CachedSynth> back = decodeCacheEntry(text, 0xDEADBEEFull);
    ASSERT_TRUE(back.ok()) << back.error().toString();
    EXPECT_EQ(back.value().oneWideRules.toString(),
              entry.oneWideRules.toString());
    EXPECT_EQ(back.value().rules.toString(), entry.rules.toString());
    ASSERT_EQ(back.value().phases.size(), entry.phases.size());
    for (std::size_t i = 0; i < entry.phases.size(); ++i)
        EXPECT_EQ(back.value().phases[i], entry.phases[i]);
    EXPECT_TRUE(back.value().rules[0].verifiedExactly);
    EXPECT_FALSE(back.value().rules[1].verifiedExactly);
}

TEST(CacheCodec, RejectsStaleFingerprint)
{
    std::string text = encodeCacheEntry(1, sampleEntry());
    Result<CachedSynth> got = decodeCacheEntry(text, 2);
    ASSERT_FALSE(got.ok());
    EXPECT_NE(got.error().message.find("stale"), std::string::npos);
}

TEST(CacheCodec, RejectsTruncation)
{
    std::string text = encodeCacheEntry(7, sampleEntry());
    // Chop at several depths: mid-header, mid-section, and just
    // before the end marker — all must fail loudly, never crash.
    for (std::size_t keep :
         {std::size_t{0}, std::size_t{10}, text.size() / 2,
          text.size() - 7}) {
        Result<CachedSynth> got =
            decodeCacheEntry(text.substr(0, keep), 7);
        EXPECT_FALSE(got.ok()) << "accepted a " << keep << "-byte prefix";
    }
}

TEST(CacheCodec, RejectsGarbledRules)
{
    std::string text = encodeCacheEntry(7, sampleEntry());
    std::size_t at = text.find("~>");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 2, "##");
    EXPECT_FALSE(decodeCacheEntry(text, 7).ok());
}

TEST(CacheCodec, RejectsPhaseMismatch)
{
    CachedSynth entry = sampleEntry();
    entry.phases.pop_back();
    std::string text = encodeCacheEntry(7, entry);
    Result<CachedSynth> got = decodeCacheEntry(text, 7);
    ASSERT_FALSE(got.ok());
    EXPECT_NE(got.error().message.find("phase"), std::string::npos);
}

// ---------------------------------------------------------------------
// Directory-backed store and load.

TEST(RuleCacheIO, DisabledCacheIsInert)
{
    RuleCache cache;
    EXPECT_FALSE(cache.enabled());
    IsaSpec isa;
    CacheProbe probe = cache.load(isa, 42);
    EXPECT_FALSE(probe.hit());
    EXPECT_TRUE(probe.diagnostic.empty());
    EXPECT_FALSE(cache.store(isa, 42, sampleEntry()).ok());
}

TEST(RuleCacheIO, MissThenStoreThenHit)
{
    RuleCache cache(scratchDir("roundtrip"));
    IsaSpec isa;
    CacheProbe cold = cache.load(isa, 42);
    EXPECT_FALSE(cold.hit());
    EXPECT_TRUE(cold.diagnostic.empty());

    Result<std::string> stored = cache.store(isa, 42, sampleEntry());
    ASSERT_TRUE(stored.ok()) << stored.error().toString();
    EXPECT_EQ(stored.value(), cache.entryPath(isa, 42));

    CacheProbe warm = cache.load(isa, 42);
    ASSERT_TRUE(warm.hit());
    EXPECT_EQ(warm.entry->rules.toString(),
              sampleEntry().rules.toString());

    // A different fingerprint is a different entry: still a miss.
    EXPECT_FALSE(cache.load(isa, 43).hit());
}

TEST(RuleCacheIO, CorruptEntryIsAMissWithDiagnostic)
{
    RuleCache cache(scratchDir("corrupt"));
    IsaSpec isa;
    ASSERT_TRUE(cache.store(isa, 7, sampleEntry()).ok());

    // Truncate the published entry mid-file (simulates a torn disk,
    // not a torn write — writes are atomic by rename).
    std::string path = cache.entryPath(isa, 7);
    std::string text;
    {
        std::ifstream in(path);
        std::getline(in, text); // keep only the magic line
    }
    {
        std::ofstream out(path, std::ios::trunc);
        out << text << '\n';
    }
    CacheProbe probe = cache.load(isa, 7);
    EXPECT_FALSE(probe.hit());
    EXPECT_NE(probe.diagnostic.find(path), std::string::npos);
}

TEST(RuleCacheIO, FromEnvHonoursIsariaCache)
{
    ::setenv("ISARIA_CACHE", "/tmp/isaria-env-cache", 1);
    RuleCache fromEnv = RuleCache::fromEnv();
    EXPECT_TRUE(fromEnv.enabled());
    EXPECT_EQ(fromEnv.dir(), "/tmp/isaria-env-cache");
    ::unsetenv("ISARIA_CACHE");
    EXPECT_FALSE(RuleCache::fromEnv().enabled());
}

// ---------------------------------------------------------------------
// The cached synthesis path (acceptance criterion: a warm run does no
// enumeration or verification and yields the identical rules).

TEST(CachedSynthesis, WarmRunSkipsSynthesisAndIsByteIdentical)
{
    RuleCache cache(scratchDir("warm"));
    IsaSpec isa;
    SynthConfig config = tinyConfig();

    std::string coldRules;
    {
        obs::TraceSession session;
        session.activate();
        SynthReport cold = synthesizeRulesCached(isa, config, cache);
        session.deactivate();
        obs::StatsReport stats = obs::aggregateStats(session);
        EXPECT_FALSE(cold.fromCache);
        EXPECT_GE(spanCount(stats, "synth/enumerate"), 1u);
        EXPECT_EQ(counterSum(stats, "synth/cache/miss"), 1);
        EXPECT_EQ(counterSum(stats, "synth/cache/store"), 1);
        coldRules = cold.rules.toString();
        EXPECT_FALSE(coldRules.empty());
    }
    {
        obs::TraceSession session;
        session.activate();
        SynthReport warm = synthesizeRulesCached(isa, config, cache);
        session.deactivate();
        obs::StatsReport stats = obs::aggregateStats(session);
        EXPECT_TRUE(warm.fromCache);
        // Zero offline work on the warm path: no enumeration span, no
        // verification batches, no shrink phase.
        EXPECT_EQ(spanCount(stats, "synth/enumerate"), 0u);
        EXPECT_EQ(spanCount(stats, "synth/verify-batch"), 0u);
        EXPECT_EQ(spanCount(stats, "synth/shrink"), 0u);
        EXPECT_EQ(counterSum(stats, "synth/cache/hit"), 1);
        EXPECT_EQ(warm.rules.toString(), coldRules);
        EXPECT_EQ(warm.oneWideRules.size() > 0, true);
    }
}

TEST(CachedSynthesis, DisabledCacheFallsThrough)
{
    IsaSpec isa;
    SynthReport report =
        synthesizeRulesCached(isa, tinyConfig(), RuleCache());
    EXPECT_FALSE(report.fromCache);
    EXPECT_GT(report.rules.size(), 0u);
}

TEST(CachedSynthesis, GenerateCompilerUsesTheCache)
{
    RuleCache cache(scratchDir("pipeline"));
    IsaSpec isa;
    SynthConfig config = tinyConfig();
    CompilerConfig cc;

    GeneratedCompiler cold = generateCompiler(isa, cache, config, cc);
    EXPECT_FALSE(cold.synth.fromCache);
    GeneratedCompiler warm = generateCompiler(isa, cache, config, cc);
    EXPECT_TRUE(warm.synth.fromCache);
    EXPECT_EQ(warm.synth.rules.toString(), cold.synth.rules.toString());
    EXPECT_EQ(warm.phased.toCsv(), cold.phased.toCsv());

    RecExpr program = parseSexpr(
        "(List (Vec (+ (Get px 0) (Get py 0)) (+ (Get px 1) (Get py 1))"
        " (+ (Get px 2) (Get py 2)) (Get px 3)))");
    EXPECT_EQ(printSexpr(warm.compiler.compile(program)),
              printSexpr(cold.compiler.compile(program)));
}

// ---------------------------------------------------------------------
// The in-memory compile memo.

TEST(CompileMemo, DisabledMemoIsInert)
{
    CompileMemo memo(0);
    EXPECT_FALSE(memo.enabled());
    RecExpr p = parseSexpr("(+ (Get a 0) 1)");
    memo.store(p, {p, 5});
    EXPECT_FALSE(memo.lookup(p).has_value());
    EXPECT_EQ(memo.stats().insertions, 0u);
}

TEST(CompileMemo, StoreThenHitReturnsFirstResult)
{
    CompileMemo memo(8);
    RecExpr p = parseSexpr("(+ (Get a 0) 1)");
    RecExpr q = parseSexpr("(* (Get a 0) 2)");
    EXPECT_FALSE(memo.lookup(p).has_value());
    memo.store(p, {q, 7});
    // First result wins: a second store of the same program is a no-op.
    memo.store(p, {p, 99});
    auto hit = memo.lookup(p);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->cost, 7u);
    EXPECT_TRUE(hit->compiled.equalTree(q));
    CompileMemo::Stats stats = memo.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
}

TEST(CompileMemo, EvictsFifoAtCapacity)
{
    CompileMemo memo(2);
    RecExpr a = parseSexpr("(+ (Get a 0) 1)");
    RecExpr b = parseSexpr("(+ (Get b 0) 1)");
    RecExpr c = parseSexpr("(+ (Get c 0) 1)");
    memo.store(a, {a, 1});
    memo.store(b, {b, 2});
    memo.store(c, {c, 3});
    EXPECT_FALSE(memo.lookup(a).has_value()); // oldest evicted
    EXPECT_TRUE(memo.lookup(b).has_value());
    EXPECT_TRUE(memo.lookup(c).has_value());
    EXPECT_EQ(memo.stats().evictions, 1u);
}

TEST(CompileMemo, CompilerMemoizesRepeatCompiles)
{
    RuleSet rules;
    auto add = [&](const char *text) {
        Rule r = parseRule(text);
        r.name = "mini";
        rules.add(std::move(r));
    };
    add("?a ~> (+ ?a 0)");
    add("(+ ?a 0) ~> ?a");
    add("(+ ?a ?b) ~> (+ ?b ?a)");
    add("(Vec (+ ?a0 ?b0) (+ ?a1 ?b1) (+ ?a2 ?b2) (+ ?a3 ?b3)) ~> "
        "(VecAdd (Vec ?a0 ?a1 ?a2 ?a3) (Vec ?b0 ?b1 ?b2 ?b3))");
    CompilerConfig config;
    config.memoEntries = 16;
    IsariaCompiler compiler(assignPhases(rules, config.costModel),
                            config);

    RecExpr program = parseSexpr(
        "(List (Vec (+ (Get px 0) (Get py 0)) (+ (Get px 1) (Get py 1))"
        " (+ (Get px 2) (Get py 2)) (+ (Get px 3) (Get py 3))))");
    CompileStats first, second;
    RecExpr out1 = compiler.compile(program, &first);
    RecExpr out2 = compiler.compile(program, &second);
    EXPECT_FALSE(first.memoHit);
    EXPECT_TRUE(second.memoHit);
    EXPECT_EQ(second.eqsatCalls, 0);
    EXPECT_EQ(printSexpr(out1), printSexpr(out2));
    EXPECT_EQ(first.finalCost, second.finalCost);
    EXPECT_EQ(compiler.memoStats().hits, 1u);
    EXPECT_NE(second.toString().find("[memo hit]"), std::string::npos);
}

} // namespace
} // namespace isaria
