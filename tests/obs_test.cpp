// Tests for the observability substrate (src/obs/): ring-buffer
// wraparound, exporter validity, the aggregated stats report, the
// opt-in option surface, and the two invariants the instrumentation
// promises — traced runs are byte-identical to untraced runs, and
// every stop reason stays nameable and round-trippable.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/diospyros.h"
#include "compiler/compiler.h"
#include "egraph/extract.h"
#include "egraph/runner.h"
#include "frontend/kernels.h"
#include "isa/cost_model.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/ring_buffer.h"
#include "phase/phase.h"
#include "term/sexpr.h"

namespace isaria
{
namespace
{

// ---------------------------------------------------------------------
// A minimal recursive-descent JSON validator, so exporter tests check
// real syntactic validity instead of substring presence.

class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        pos_ = 0;
        if (!value())
            return false;
        ws();
        return pos_ == text_.size();
    }

  private:
    void
    ws()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string()
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    value()
    {
        ws();
        if (pos_ >= text_.size())
            return false;
        char c = text_[pos_];
        if (c == '"')
            return string();
        if (c == '{') {
            ++pos_;
            ws();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                ws();
                if (!string())
                    return false;
                ws();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return false;
                ++pos_;
                if (!value())
                    return false;
                ws();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            if (pos_ >= text_.size() || text_[pos_] != '}')
                return false;
            ++pos_;
            return true;
        }
        if (c == '[') {
            ++pos_;
            ws();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                if (!value())
                    return false;
                ws();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            if (pos_ >= text_.size() || text_[pos_] != ']')
                return false;
            ++pos_;
            return true;
        }
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

bool
isValidJson(const std::string &text)
{
    return JsonValidator(text).valid();
}

obs::Event
countEvent(std::int64_t value)
{
    obs::Event e;
    e.name = 0;
    e.kind = obs::EventKind::Counter;
    e.startNs = static_cast<std::uint64_t>(value);
    e.value = value;
    return e;
}

// ---------------------------------------------------------------------
// Ring buffer.

TEST(ObsRing, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(obs::EventRing(1).capacity(), 8u);
    EXPECT_EQ(obs::EventRing(8).capacity(), 8u);
    EXPECT_EQ(obs::EventRing(100).capacity(), 128u);
}

TEST(ObsRing, RetainsEverythingBelowCapacity)
{
    obs::EventRing ring(8);
    for (int i = 0; i < 5; ++i)
        ring.push(countEvent(i));
    EXPECT_EQ(ring.totalPushed(), 5u);
    EXPECT_EQ(ring.dropped(), 0u);
    std::vector<obs::Event> out;
    ring.snapshot(out);
    ASSERT_EQ(out.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)].value, i);
}

TEST(ObsRing, WraparoundKeepsNewestAndCountsDropped)
{
    obs::EventRing ring(8);
    const int total = 21;
    for (int i = 0; i < total; ++i)
        ring.push(countEvent(i));
    EXPECT_EQ(ring.totalPushed(), 21u);
    EXPECT_EQ(ring.dropped(), 13u);
    std::vector<obs::Event> out;
    ring.snapshot(out);
    ASSERT_EQ(out.size(), 8u);
    // Oldest-first among the retained (newest) events: 13..20.
    for (std::size_t j = 0; j < out.size(); ++j)
        EXPECT_EQ(out[j].value, 13 + static_cast<std::int64_t>(j));
}

TEST(ObsSession, DropCountSurvivesToDrainAndMeta)
{
    obs::CounterHandle c = obs::metricCounter("otest/wrap/counter");
    obs::TraceSession session(/*ringCapacity=*/16);
    session.activate();
    for (int i = 0; i < 100; ++i)
        obs::metricAdd(c, static_cast<std::uint64_t>(i));
    session.deactivate();

    EXPECT_EQ(session.droppedEvents(), 84u);
    EXPECT_EQ(session.drain().size(), 16u);

    std::ostringstream out;
    obs::exportJsonl(session, out);
    std::istringstream lines(out.str());
    std::string first;
    std::getline(lines, first);
    EXPECT_NE(first.find("\"dropped\":84"), std::string::npos) << first;
}

// ---------------------------------------------------------------------
// Stop reasons.

TEST(Obs, StopReasonNamesRoundTrip)
{
    std::set<std::string> seen;
    for (StopReason reason : kAllStopReasons) {
        std::string name = stopReasonName(reason);
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "?");
        // Unique across enumerators.
        EXPECT_TRUE(seen.insert(name).second) << name;
        auto back = stopReasonFromName(name.c_str());
        ASSERT_TRUE(back.has_value()) << name;
        EXPECT_EQ(*back, reason);
    }
    EXPECT_EQ(seen.size(), kAllStopReasons.size());
    EXPECT_FALSE(stopReasonFromName("no-such-reason").has_value());

    // Pin the resource-guard stops by exact name: trace consumers key
    // on these strings, so renames are breaking changes.
    EXPECT_EQ(kAllStopReasons.size(), 6u);
    EXPECT_STREQ(stopReasonName(StopReason::MemLimit), "mem-limit");
    EXPECT_STREQ(stopReasonName(StopReason::Cancelled), "cancelled");
}

TEST(Obs, StepBudgetStopsDistinguishableFromTimeout)
{
    auto rules = compileRules(diospyrosHandRules().rules());
    RecExpr program = liftKernel(make2DConv(3, 3, 2, 2), 4);
    EqSatLimits limits;
    limits.maxIters = 2;
    limits.maxNodes = 40'000;
    limits.maxSearchStepsPerRule = 4; // starve the search
    limits.numThreads = 1;
    EGraph eg;
    eg.addExpr(program);
    EqSatReport starved = runEqSat(eg, rules, limits);

    EXPECT_TRUE(starved.stepBudgetExhausted);
    EXPECT_NE(starved.stop, StopReason::TimeLimit);
    EXPECT_NE(starved.toString().find("step budget"),
              std::string::npos);

    // A wall-clock stop reads differently from a starved search.
    EqSatReport timedOut;
    timedOut.stop = StopReason::TimeLimit;
    EXPECT_EQ(timedOut.toString().find("step budget"),
              std::string::npos);
    EXPECT_NE(timedOut.toString(), starved.toString());

    // An ample budget does not raise the flag.
    EqSatLimits ample = limits;
    ample.maxSearchStepsPerRule = 1'000'000;
    EGraph eg2;
    eg2.addExpr(program);
    EXPECT_FALSE(runEqSat(eg2, rules, ample).stepBudgetExhausted);
}

// ---------------------------------------------------------------------
// Exporters.

/** Records a small mixed batch of events into a fresh session. */
void
recordSampleEvents(obs::TraceSession &session)
{
    static const obs::CounterHandle counter =
        obs::metricCounter("test/counter");
    static const obs::GaugeHandle gauge = obs::metricGauge("test/gauge");
    session.activate();
    {
        obs::Span outer("test/outer", 1);
        {
            obs::Span inner("test/\"quoted\\name\"", 2);
            obs::metricAdd(counter, 41);
            obs::metricAdd(counter, 42);
        }
        obs::metricSet(gauge, 7);
    }
    session.deactivate();
}

TEST(ObsExport, JsonlEveryLineParses)
{
    obs::TraceSession session;
    recordSampleEvents(session);

    std::ostringstream out;
    obs::exportJsonl(session, out);
    std::istringstream lines(out.str());
    std::string line;
    std::size_t count = 0;
    std::size_t histLines = 0;
    bool sawMeta = false;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        EXPECT_TRUE(isValidJson(line)) << line;
        if (count == 0) {
            sawMeta = line.find("\"type\":\"meta\"") !=
                      std::string::npos;
            EXPECT_NE(line.find("\"schema\":2"), std::string::npos);
            EXPECT_NE(line.find("\"hists\":"), std::string::npos);
        } else if (line.find("\"type\":\"hist\"") !=
                   std::string::npos) {
            // Schema-v2 histogram summaries of the process-global
            // metrics registry; how many exist depends on which
            // tests ran before this one, so only check their shape.
            ++histLines;
            for (const char *field :
                 {"\"count\":", "\"sum\":", "\"p50\":", "\"p90\":",
                  "\"p95\":", "\"p99\":"})
                EXPECT_NE(line.find(field), std::string::npos) << line;
        }
        ++count;
    }
    EXPECT_TRUE(sawMeta);
    // meta + 2 spans + 2 counter adds + 1 gauge write (+ registry
    // hists).
    EXPECT_EQ(count - histLines, 6u);
}

TEST(ObsExport, ChromeTraceIsValidJson)
{
    obs::TraceSession session;
    recordSampleEvents(session);

    std::ostringstream out;
    obs::exportChromeTrace(session, out);
    const std::string text = out.str();
    EXPECT_TRUE(isValidJson(text));
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    // Spans are complete events — no begin/end pairing to unbalance.
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_EQ(text.find("\"ph\":\"B\""), std::string::npos);
}

TEST(ObsExport, StatsAggregateAndJsonBlock)
{
    obs::TraceSession session;
    recordSampleEvents(session);

    obs::StatsReport report = obs::aggregateStats(session);
    ASSERT_EQ(report.spans.size(), 2u);
    bool sawCounter = false;
    for (const obs::StatsEntry &entry : report.counters) {
        if (entry.name == "test/counter") {
            sawCounter = true;
            EXPECT_EQ(entry.count, 2u);
            EXPECT_EQ(entry.min, 41);
            EXPECT_EQ(entry.max, 42);
            EXPECT_EQ(entry.last, 42);
        }
    }
    EXPECT_TRUE(sawCounter);
    EXPECT_TRUE(isValidJson(report.toJson()));
    EXPECT_FALSE(report.toString().empty());
}

TEST(ObsSession, RegistryWritesBecomeCounterEvents)
{
    // The registry is the one recording call: while a session is
    // active, a counter add lands in the trace carrying its delta and
    // a gauge write carrying the value written.
    obs::CounterHandle c = obs::metricCounter("otest/derived/count");
    obs::GaugeHandle g = obs::metricGauge("otest/derived/gauge");
    obs::metricAdd(c, 1000); // no session: registry only
    obs::TraceSession session;
    session.activate();
    obs::metricAdd(c, 3);
    obs::metricAdd(c, 4);
    obs::metricSet(g, -5);
    obs::metricMax(g, 9);
    session.deactivate();

    std::map<std::string, obs::StatsEntry> byName;
    for (const obs::StatsEntry &entry : obs::aggregateStats(session).counters)
        byName[entry.name] = entry;
    const obs::StatsEntry &count = byName["otest/derived/count"];
    EXPECT_EQ(count.count, 2u);
    EXPECT_EQ(count.sum, 7);
    const obs::StatsEntry &gauge = byName["otest/derived/gauge"];
    EXPECT_EQ(gauge.count, 2u);
    EXPECT_EQ(gauge.min, -5);
    EXPECT_EQ(gauge.last, 9);
}

// ---------------------------------------------------------------------
// Threading.

TEST(ObsSession, MultithreadedEmissionIsLossless)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 500;
    obs::TraceSession session(/*ringCapacity=*/1024);
    session.activate();
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([t] {
            std::string name = "mt/thread-" + std::to_string(t);
            obs::CounterHandle c = obs::metricCounter(name.c_str());
            for (int i = 0; i < kPerThread; ++i)
                obs::metricAdd(c, static_cast<std::uint64_t>(i));
        });
    }
    for (std::thread &w : workers)
        w.join();
    session.deactivate();

    auto events = session.drain();
    EXPECT_EQ(events.size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
    EXPECT_EQ(session.droppedEvents(), 0u);
    EXPECT_EQ(session.threadCount(), static_cast<std::size_t>(kThreads));
    // drain() is sorted by start time.
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].event.startNs, events[i].event.startNs);
}

// ---------------------------------------------------------------------
// Tracing must not perturb results.

std::string
saturateAndExtract(const RecExpr &program,
                   const std::vector<CompiledRule> &rules, int threads)
{
    EqSatLimits limits;
    limits.maxIters = 3;
    limits.maxNodes = 40'000;
    limits.numThreads = threads;
    EGraph eg;
    EClassId root = eg.addExpr(program);
    runEqSat(eg, rules, limits);
    DspCostModel cost;
    auto best = extractBest(eg, root, cost);
    EXPECT_TRUE(best.has_value());
    return best ? printSexpr(best->expr) : std::string();
}

TEST(ObsDeterminism, TracedRunsAreByteIdentical)
{
    auto rules = compileRules(diospyrosHandRules().rules());
    RecExpr program = liftKernel(make2DConv(3, 3, 2, 2), 4);

    for (int threads : {1, 4}) {
        std::string untraced =
            saturateAndExtract(program, rules, threads);

        obs::TraceSession session;
        session.activate();
        std::string traced = saturateAndExtract(program, rules, threads);
        session.deactivate();

        EXPECT_EQ(traced, untraced) << "threads=" << threads;
        // The traced run actually recorded the hot path.
        EXPECT_GT(session.drain().size(), 0u);
    }
}

TEST(ObsDeterminism, TracedCompileStatsMatchUntraced)
{
    CompilerConfig config;
    config.maxLoopIterations = 2;
    IsariaCompiler compiler(
        assignPhases(diospyrosHandRules(), config.costModel), config);
    RecExpr program = liftKernel(make2DConv(3, 3, 2, 2), 4);

    CompileStats plain;
    std::string untraced = printSexpr(compiler.compile(program, &plain));

    obs::TraceSession session;
    session.activate();
    CompileStats traced;
    std::string result = printSexpr(compiler.compile(program, &traced));
    session.deactivate();

    EXPECT_EQ(result, untraced);
    EXPECT_EQ(traced.finalCost, plain.finalCost);
    EXPECT_EQ(traced.rounds.size(), plain.rounds.size());
}

// ---------------------------------------------------------------------
// CompileStats per-round sub-stats.

TEST(Obs, CompileStatsCarriesPerRoundSubStats)
{
    CompilerConfig config;
    config.maxLoopIterations = 2;
    IsariaCompiler compiler(
        assignPhases(diospyrosHandRules(), config.costModel), config);
    RecExpr program = liftKernel(make2DConv(3, 3, 2, 2), 4);

    CompileStats stats;
    compiler.compile(program, &stats);

    ASSERT_FALSE(stats.rounds.empty());
    for (std::size_t i = 0; i < stats.rounds.size(); ++i) {
        const RoundStats &round = stats.rounds[i];
        EXPECT_EQ(round.round, static_cast<int>(i + 1));
        EXPECT_GT(round.compilation.nodes, 0u);
        EXPECT_GT(round.compilation.classes, 0u);
        EXPECT_GT(round.extractedCost, 0u);
    }
    // The old aggregate fields still agree with the new sub-stats.
    EXPECT_EQ(stats.loopIterations,
              static_cast<int>(stats.rounds.size()));

    std::string text = stats.toString();
    EXPECT_NE(text.find("round 1: compilation"), std::string::npos)
        << text;
}

// ---------------------------------------------------------------------
// Option surface.

TEST(ObsOptions, ParseConsumesAndCompactsArgv)
{
    std::vector<std::string> storage = {
        "prog",    "--trace=out.json", "--trace-format=chrome",
        "--stats", "conv",             "3",
    };
    std::vector<char *> argv;
    for (std::string &arg : storage)
        argv.push_back(arg.data());
    int argc = static_cast<int>(argv.size());

    obs::ObsOptions opts = obs::ObsOptions::parse(argc, argv.data());
    EXPECT_EQ(opts.tracePath, "out.json");
    EXPECT_EQ(opts.format, obs::TraceFormat::Chrome);
    EXPECT_TRUE(opts.stats);
    EXPECT_TRUE(opts.enabled());

    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[0], "prog");
    EXPECT_STREQ(argv[1], "conv");
    EXPECT_STREQ(argv[2], "3");
}

TEST(ObsOptions, DefaultsAreDisabled)
{
    std::vector<std::string> storage = {"prog", "conv"};
    std::vector<char *> argv;
    for (std::string &arg : storage)
        argv.push_back(arg.data());
    int argc = static_cast<int>(argv.size());
    obs::ObsOptions opts = obs::ObsOptions::parse(argc, argv.data());
    EXPECT_FALSE(opts.enabled());
    EXPECT_EQ(argc, 2);
}

} // namespace
} // namespace isaria
