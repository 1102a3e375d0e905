// serve-mix: the compile daemon with its defaults, in-process, on a
// private unix socket in the run directory.
//
// Defaults as the isaria_serve tool sets them without flags: one
// hand-rule compiler per known machine, a 64-entry memo each, two
// compile workers, one eqsat thread per request. Every request is for
// the fusion target and asks for its program.
//
// Two closed-loop clients each keep one request in flight, so a hit
// never queues behind a miss (two workers). The stream comes in
// rounds of kRoundSize requests: every hot shape kHitsPerShape times
// (set-up warms them into the memo) plus one first-time shape from
// each cost stratum of a fixed pool, in an order drawn from the seed.
// Each round therefore asks for the same amount of work whatever the
// seed, and a run of a few rounds serves more distinct shapes than
// the memo holds, so FIFO eviction shows.

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "baseline/diospyros.h"
#include "check.h"
#include "compiler/pipeline.h"
#include "lower/lower.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "support/rng.h"
#include "term/sexpr.h"
#include "workloads.h"

using namespace isaria;

namespace perfbench
{

namespace
{

constexpr int kSetupReps = 5;
constexpr int kClients = 2;
constexpr std::size_t kMemoEntries = 64;
/** Hot shapes, each asked for kHitsPerShape times per round. */
constexpr int kHitsPerShape = 5;
/** First-time shapes per round, one per cost stratum. */
constexpr int kStrata = 10;

std::vector<KernelSpec>
hotSet()
{
    return {KernelSpec::matmul(2, 2, 2), KernelSpec::matmul(3, 3, 3),
            KernelSpec::matmul(4, 4, 4), KernelSpec::matmul(2, 3, 4),
            KernelSpec::conv2d(3, 3, 2, 2), KernelSpec::conv2d(4, 4, 2, 2),
            KernelSpec::conv2d(4, 4, 3, 3), KernelSpec::qprod()};
}

constexpr int kHotShapes = 8;
constexpr int kRoundSize = kHotShapes * kHitsPerShape + kStrata;

bool
sameShape(const KernelSpec &a, const KernelSpec &b)
{
    return a.family == b.family && a.p0 == b.p0 && a.p1 == b.p1 &&
           a.p2 == b.p2 && a.p3 == b.p3;
}

/** The first-time pool, cut into kStrata strata of rising program
 *  size, each in one fixed shuffled order: every seed serves the same
 *  shapes in the same rounds, so a round's work and the code-quality
 *  figures do not depend on the seed. */
std::vector<std::vector<KernelSpec>>
firstTimeStrata(int width)
{
    std::vector<std::pair<std::size_t, KernelSpec>> pool;
    std::vector<KernelSpec> hot = hotSet();
    auto add = [&](const KernelSpec &spec) {
        for (const KernelSpec &h : hot)
            if (sameShape(h, spec))
                return;
        pool.emplace_back(liftKernel(spec.build(), width).size(), spec);
    };
    for (int r = 2; r <= 8; ++r)
        for (int c = 2; c <= 8; ++c)
            for (int kr = 2; kr <= 3; ++kr)
                for (int kc = 2; kc <= 3; ++kc)
                    add(KernelSpec::conv2d(r, c, kr, kc));
    for (int n = 2; n <= 6; ++n)
        for (int m = 2; m <= 6; ++m)
            for (int k = 2; k <= 6; ++k)
                add(KernelSpec::matmul(n, m, k));
    std::stable_sort(pool.begin(), pool.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<std::vector<KernelSpec>> strata(kStrata);
    for (std::size_t i = 0; i < pool.size(); ++i)
        strata[i * kStrata / pool.size()].push_back(pool[i].second);
    Rng rng(0x5EED);
    for (auto &stratum : strata) {
        for (std::size_t i = stratum.size(); i > 1; --i)
            std::swap(stratum[i - 1], stratum[rng.nextBelow(i)]);
    }
    return strata;
}

std::string
requestBody(const KernelSpec &spec)
{
    std::string family, params;
    switch (spec.family) {
      case KernelSpec::Family::Conv2D:
        family = "conv2d";
        params = std::to_string(spec.p0) + ", " + std::to_string(spec.p1) +
                 ", " + std::to_string(spec.p2) + ", " +
                 std::to_string(spec.p3);
        break;
      case KernelSpec::Family::MatMul:
        family = "matmul";
        params = std::to_string(spec.p0) + ", " + std::to_string(spec.p1) +
                 ", " + std::to_string(spec.p2);
        break;
      case KernelSpec::Family::QProd: family = "qprod"; break;
      case KernelSpec::Family::QrD:
        family = "qrd";
        params = std::to_string(spec.p0);
        break;
    }
    return "{\"kernel\": {\"family\": \"" + family + "\", \"params\": [" +
           params + "]}, \"emit_program\": true}";
}

/** The request stream: round r is the hot shapes and round r's
 *  first-time shapes, in an order drawn from the seed. */
class Stream
{
  public:
    Stream(std::uint64_t seed, int width)
        : seed_(seed), strata_(firstTimeStrata(width)), hot_(hotSet())
    {}

    KernelSpec
    at(std::size_t index)
    {
        std::size_t round = index / kRoundSize;
        std::lock_guard<std::mutex> lock(mutex_);
        while (rounds_.size() <= round)
            rounds_.push_back(makeRound(rounds_.size()));
        return rounds_[round][index % kRoundSize];
    }

  private:
    std::vector<KernelSpec>
    makeRound(std::size_t round) const
    {
        std::vector<KernelSpec> out;
        for (const KernelSpec &spec : hot_)
            for (int i = 0; i < kHitsPerShape; ++i)
                out.push_back(spec);
        for (const auto &stratum : strata_)
            out.push_back(stratum[round % stratum.size()]);
        Rng rng(seed_ * 7919 + round);
        for (std::size_t i = out.size(); i > 1; --i)
            std::swap(out[i - 1], out[rng.nextBelow(i)]);
        return out;
    }

    std::uint64_t seed_;
    std::vector<std::vector<KernelSpec>> strata_;
    std::vector<KernelSpec> hot_;
    std::mutex mutex_;
    std::vector<std::vector<KernelSpec>> rounds_;
};

/** Hands out request indices in whole rounds: a round starts only
 *  while time is left, and every started round is finished. */
class Cursor
{
  public:
    Cursor(Clock::time_point start, double seconds)
        : start_(start), seconds_(seconds)
    {}

    std::optional<std::size_t>
    next()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (next_ % kRoundSize == 0 &&
            (stopped_ ||
             secondsBetween(start_, Clock::now()) >= seconds_)) {
            stopped_ = true;
            return std::nullopt;
        }
        return next_++;
    }

  private:
    Clock::time_point start_;
    double seconds_;
    std::mutex mutex_;
    std::size_t next_ = 0;
    bool stopped_ = false;
};

/** One request as the client saw it. */
struct Exchange
{
    KernelSpec spec;
    double seconds = 0;
    bool transportOk = false;
    int status = 0;
    std::string body;
};

/** The parts of one response the checks and metrics read. */
struct Reply
{
    std::string type;
    double queueMs = 0;
    double compileMs = 0;
    bool memoHit = false;
    double wallSeconds = 0;
    double initialCost = 0;
    double finalCost = 0;
    double rounds = 0;
    double eqsatCalls = 0;
    std::string program;
    /** One entry per saturation the compile ran. */
    struct Saturation
    {
        std::string stop;
        double seconds = 0, searchSeconds = 0, applySeconds = 0;
        double iterations = 0, nodes = 0, bytes = 0;
        bool stepBudgetExhausted = false;
    };
    std::vector<Saturation> saturations;
};

double
number(const serve::JsonValue *object, const char *key)
{
    const serve::JsonValue *v = object ? object->find(key) : nullptr;
    return v && v->isNumber() ? v->number : 0;
}

/** A daemon with the tool's defaults (see the file comment). */
struct Daemon
{
    std::deque<IsariaCompiler> compilers;
    std::unique_ptr<serve::ServeServer> server;
    std::string socketPath;
};

std::unique_ptr<Daemon>
startDaemon(int rep, Tracer &tracer)
{
    auto d = std::make_unique<Daemon>();
    for (const MachineDesc &machine : knownMachines()) {
        CompilerConfig cc = compilerConfigFor(machine);
        cc.memoEntries = kMemoEntries;
        PhasedRules phased;
        {
            Span span(tracer, "phase.assign");
            phased = assignPhases(diospyrosHandRules(), cc.costModel);
        }
        Span span(tracer, "compiler.build");
        d->compilers.emplace_back(std::move(phased), cc);
    }
    serve::ServeConfig sc;
    d->socketPath = "serve-" + std::to_string(rep) + ".sock";
    if (std::filesystem::exists(d->socketPath))
        throw std::runtime_error("socket path " + d->socketPath +
                                 " is not fresh");
    sc.socketPath = d->socketPath;
    Span span(tracer, "serve.start");
    d->server = std::make_unique<serve::ServeServer>(d->compilers.front(), sc);
    for (std::size_t i = 0; i < d->compilers.size(); ++i)
        d->server->addTarget(knownMachines()[i].name(), d->compilers[i]);
    std::string error;
    if (!d->server->start(&error))
        throw std::runtime_error("daemon did not start: " + error);
    return d;
}

UniqueFd
connectTo(const std::string &path)
{
    std::string error;
    UniqueFd fd = serve::connectUnix(path, &error);
    if (!fd)
        throw std::runtime_error("cannot connect: " + error);
    return fd;
}

std::optional<Reply>
parseReply(const std::string &body)
{
    Result<serve::JsonValue> parsed = serve::parseJson(body);
    if (!parsed.ok())
        return std::nullopt;
    const serve::JsonValue &root = parsed.value();
    Reply r;
    if (const serve::JsonValue *type = root.find("type"))
        r.type = type->text;
    r.queueMs = number(&root, "queue_ms");
    r.compileMs = number(&root, "compile_ms");
    if (const serve::JsonValue *program = root.find("program"))
        r.program = program->text;
    const serve::JsonValue *report = root.find("report");
    if (!report)
        return r;
    if (const serve::JsonValue *hit = report->find("memo_hit"))
        r.memoHit = hit->boolean;
    r.wallSeconds = number(report, "wall_ns") / 1e9;
    r.initialCost = number(report, "initial_cost");
    r.finalCost = number(report, "final_cost");
    r.rounds = number(report, "loop_iterations");
    r.eqsatCalls = number(report, "eqsat_calls");
    auto add = [&](const serve::JsonValue *s) {
        if (!s)
            return;
        Reply::Saturation sat;
        if (const serve::JsonValue *stop = s->find("stop"))
            sat.stop = stop->text;
        sat.seconds = number(s, "wall_ns") / 1e9;
        sat.searchSeconds = number(s, "search_ns") / 1e9;
        sat.applySeconds = number(s, "apply_ns") / 1e9;
        sat.iterations = number(s, "iterations");
        sat.nodes = number(s, "nodes");
        sat.bytes = number(s, "bytes");
        if (const serve::JsonValue *step = s->find("step_budget_exhausted"))
            sat.stepBudgetExhausted = step->boolean;
        r.saturations.push_back(sat);
    };
    if (const serve::JsonValue *rounds = report->find("rounds")) {
        for (const serve::JsonValue &round : rounds->items) {
            add(round.find("expansion"));
            add(round.find("compilation"));
        }
    }
    add(report->find("optimization"));
    return r;
}

} // namespace

RunResult
runServeWorkload(const Options &options, Tracer &tracer)
{
    const MachineDesc machine = MachineDesc::fusionG3();
    const int width = machine.vectorWidth;
    RunResult result;
    std::vector<KernelSpec> hot = hotSet();

    // Set-up: kSetupReps daemons started and warmed; setup_s is their
    // median. The first serves, and the others are set up after the
    // timed phase: a daemon whose threads took over the malloc arenas
    // of earlier daemons' threads has a resident set that depends on
    // what those threads held (README.md).
    std::vector<double> setupSeconds;
    auto setUp = [&](int rep) {
        Clock::time_point start = rep == 0 ? processStart() : Clock::now();
        Span setupSpan(tracer, "setup");
        std::unique_ptr<Daemon> d = startDaemon(rep, tracer);
        UniqueFd fd = connectTo(d->socketPath);
        for (const KernelSpec &spec : hot) {
            Span span(tracer, "serve.warm");
            serve::HttpResponse response;
            if (!serve::httpRoundTrip(fd.get(), "POST", "/compile",
                                      requestBody(spec), response) ||
                response.status != 200)
                throw std::runtime_error("warming " + spec.label() +
                                         " failed: " + response.error);
        }
        setupSeconds.push_back(secondsBetween(start, Clock::now()));
        return d;
    };
    std::unique_ptr<Daemon> daemon = setUp(0);
    double setupPeakRss = peakRssMb();
    const IsariaCompiler &fusion = daemon->compilers.front();
    CompileMemo::Stats memoBefore = fusion.memoStats();

    // Timed phase: two closed-loop clients over whole rounds.
    Stream stream(options.seed, width);
    std::vector<Exchange> exchanges;
    std::mutex exchangesMutex;
    RssSampler rss;
    rss.start();
    Clock::time_point timedStart = Clock::now();
    Cursor cursor(timedStart, options.seconds);
    std::vector<std::thread> clients;
    std::vector<std::string> clientErrors(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            try {
                UniqueFd fd = connectTo(daemon->socketPath);
                while (std::optional<std::size_t> index = cursor.next()) {
                    Exchange x;
                    x.spec = stream.at(*index);
                    std::string body = requestBody(x.spec);
                    serve::HttpResponse response;
                    {
                        Span span(tracer, "serve.request",
                                  static_cast<std::int64_t>(*index));
                        Clock::time_point t0 = Clock::now();
                        x.transportOk = serve::httpRoundTrip(
                            fd.get(), "POST", "/compile", body, response);
                        x.seconds = secondsBetween(t0, Clock::now());
                    }
                    x.status = response.status;
                    x.body = std::move(response.body);
                    if (!x.transportOk) {
                        // Reconnect: the failed connection may be dead.
                        fd = connectTo(daemon->socketPath);
                    }
                    std::lock_guard<std::mutex> lock(exchangesMutex);
                    exchanges.push_back(std::move(x));
                }
            } catch (const std::exception &e) {
                clientErrors[c] = e.what();
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    double timedSeconds = secondsBetween(timedStart, Clock::now());
    double peakRss = rss.stop();
    CompileMemo::Stats memoAfter = fusion.memoStats();
    daemon->server->stopAndJoin();
    for (const std::string &error : clientErrors)
        if (!error.empty())
            throw std::runtime_error("client failed: " + error);
    for (int rep = 1; rep < kSetupReps; ++rep)
        setUp(rep)->server->stopAndJoin();

    // Checks: every returned program is parsed, lowered at the
    // target's width, simulated and checked; every response for a
    // shape must carry the first response's program.
    struct ShapeCheck
    {
        std::string program;
        bool ok = false;
        std::uint64_t cycles = 0;
        std::uint64_t scalarCycles = 0;
        double instructions = 0;
        double liftSeconds = 0;
        double programNodes = 0;
        double costRatio = 0;
    };
    std::map<std::string, ShapeCheck> shapes;
    std::vector<double> all, hits, misses, transport, queue;
    double compileTotal = 0, responseBytes = 0;
    std::vector<std::optional<Reply>> replies;
    std::size_t completed = 0;
    for (const Exchange &x : exchanges) {
        ++result.attempted;
        all.push_back(x.seconds);
        std::optional<Reply> reply;
        if (x.transportOk && x.status == 200)
            reply = parseReply(x.body);
        replies.push_back(reply);
        if (!reply || reply->type != "report" || reply->program.empty()) {
            ++result.failed;
            std::fprintf(stderr, "%s: %s response (status %d)\n",
                         x.spec.label().c_str(),
                         reply ? reply->type.c_str() : "no", x.status);
            continue;
        }
        responseBytes += static_cast<double>(x.body.size());
        (reply->memoHit ? hits : misses).push_back(x.seconds);
        // The daemon rounds queue_ms and compile_ms to whole ms, and a
        // hit takes a fraction of one, so the hit's compile time is
        // taken from its report's wall_ns instead.
        if (reply->memoHit)
            transport.push_back(x.seconds - reply->queueMs / 1000 -
                                reply->wallSeconds);
        queue.push_back(reply->queueMs);
        compileTotal += reply->compileMs / 1000;

        std::string label = x.spec.label();
        auto [it, fresh] = shapes.try_emplace(label);
        ShapeCheck &shape = it->second;
        if (fresh) {
            shape.program = reply->program;
            if (reply->initialCost > 0)
                shape.costRatio = reply->finalCost / reply->initialCost;
            Kernel kernel;
            RecExpr lifted;
            Clock::time_point t0 = Clock::now();
            {
                Span span(tracer, "frontend.lift");
                kernel = x.spec.build();
                lifted = liftKernel(kernel, width);
            }
            shape.liftSeconds = secondsBetween(t0, Clock::now());
            shape.programNodes = static_cast<double>(lifted.size());
            VmMemory inputs =
                makeInputs(kernel, options.seed * 1'000'003 +
                                       std::hash<std::string>{}(label));
            std::vector<double> expected = expectedOutputs(x.spec, inputs);
            LowerOptions lower;
            lower.width = width;
            lower.totalOutputs = kernel.totalOutputs();
            LowerOptions scalar = lower;
            scalar.scalarOnly = true;
            VmRunResult base;
            {
                Span span(tracer, "baseline.scalar");
                base = runProgram(lowerProgram(lifted, scalar), inputs,
                                  machine.latency);
            }
            Verdict baseVerdict = checkOutputs(
                x.spec, inputs, expected, base.memory.at(outputArraySymbol()));
            if (!baseVerdict.ok) {
                result.correct = false;
                std::fprintf(stderr, "scalar %s: %s\n", label.c_str(),
                             baseVerdict.why.c_str());
            }
            shape.scalarCycles = base.cycles;
            lower.scalarizeRawChunks = true;
            Result<VmProgram> program = Error{"not lowered", 0};
            try {
                RecExpr parsed;
                {
                    Span span(tracer, "serve.parse_program");
                    parsed = parseSexpr(reply->program);
                }
                Span span(tracer, "lower.lower");
                program = tryLowerProgram(parsed, lower);
            } catch (const std::exception &e) {
                program = Error{e.what(), 0};
            }
            if (program.ok()) {
                shape.instructions =
                    static_cast<double>(program.value().code.size());
                VmRunResult run;
                {
                    Span span(tracer, "vm.simulate");
                    run = runProgram(program.value(), inputs, machine.latency);
                }
                Verdict v = checkOutputs(x.spec, inputs, expected,
                                         run.memory.at(outputArraySymbol()));
                shape.ok = v.ok;
                shape.cycles = run.cycles;
                if (!v.ok) {
                    result.correct = false;
                    std::fprintf(stderr, "%s: wrong output: %s\n",
                                 label.c_str(), v.why.c_str());
                }
            } else {
                std::fprintf(stderr, "%s: program did not lower: %s\n",
                             label.c_str(), program.error().toString().c_str());
            }
        }
        if (!shape.ok) {
            ++result.failed;
            continue;
        }
        if (reply->program != shape.program) {
            ++result.failed;
            result.correct = false;
            std::fprintf(stderr, "%s: %s returned another program than the "
                         "first response\n", label.c_str(),
                         reply->memoHit ? "a hit" : "a miss");
            continue;
        }
        ++completed;
    }

    // Code quality over the first round's shapes, which every run
    // serves whatever its length: the hot set and ten first-time ones.
    std::set<std::string> firstRound;
    for (std::size_t i = 0; i < kRoundSize; ++i)
        firstRound.insert(stream.at(i).label());
    std::vector<double> speedups, costRatios;
    double cycles = 0, scalarCycles = 0, instructions = 0;
    for (const auto &[label, shape] : shapes) {
        if (!shape.ok)
            continue;
        if (firstRound.count(label))
            speedups.push_back(static_cast<double>(shape.scalarCycles) /
                               static_cast<double>(shape.cycles));
        if (shape.costRatio > 0)
            costRatios.push_back(shape.costRatio);
        cycles += static_cast<double>(shape.cycles);
        scalarCycles += static_cast<double>(shape.scalarCycles);
        instructions += shape.instructions;
    }
    auto distinct =
        static_cast<double>(std::max<std::size_t>(1, shapes.size()));

    std::map<std::string, double> &e2e = result.endToEnd;
    e2e["setup_s"] = median(setupSeconds);
    e2e["setup_peak_rss_mb"] = setupPeakRss;
    e2e["peak_rss_mb"] = peakRss;
    e2e["latency_p50_ms"] = 1000 * median(all);
    e2e["throughput_per_s"] = static_cast<double>(completed) / timedSeconds;
    e2e["speedup_geomean"] = geomean(speedups);

    // Per-layer figures: per request means unless named otherwise.
    auto n = static_cast<double>(std::max<std::size_t>(1, exchanges.size()));
    double liftSeconds = 0, programNodes = 0, wall = 0, saturate = 0,
           rounds = 0, calls = 0, search = 0, apply = 0, iterations = 0;
    double peakNodes = 0, peakBytes = 0, stepStops = 0;
    std::map<std::string, double> stops;
    for (std::size_t i = 0; i < exchanges.size(); ++i) {
        auto it = shapes.find(exchanges[i].spec.label());
        if (it != shapes.end()) {
            liftSeconds += it->second.liftSeconds;
            programNodes += it->second.programNodes;
        }
        const std::optional<Reply> &r = replies[i];
        if (!r)
            continue;
        wall += r->wallSeconds;
        rounds += r->rounds;
        calls += r->eqsatCalls;
        for (const Reply::Saturation &s : r->saturations) {
            saturate += s.seconds;
            search += s.searchSeconds;
            apply += s.applySeconds;
            iterations += s.iterations;
            peakNodes = std::max(peakNodes, s.nodes);
            peakBytes = std::max(peakBytes, s.bytes);
            stops[s.stop] += 1;
            stepStops += s.stepBudgetExhausted ? 1 : 0;
        }
    }
    std::map<std::string, double> &layer = result.perLayer;
    layer["phase.assign_ms"] = 1000 * median(tracer.durations("phase.assign"));
    PhasedRules handRules = fusion.rules();
    layer["phase.expansion_rules"] =
        static_cast<double>(handRules.countOf(Phase::Expansion));
    layer["phase.compilation_rules"] =
        static_cast<double>(handRules.countOf(Phase::Compilation));
    layer["phase.optimization_rules"] =
        static_cast<double>(handRules.countOf(Phase::Optimization));
    layer["frontend.lift_ms"] = 1000 * liftSeconds / n;
    layer["frontend.program_nodes"] = programNodes / n;
    layer["compiler.build_ms"] =
        1000 * median(tracer.durations("compiler.build"));
    layer["compiler.compile_s"] = wall / n;
    layer["compiler.rounds"] = rounds / n;
    layer["compiler.eqsat_calls"] = calls / n;
    layer["compiler.extract_s"] = (wall - saturate) / n;
    layer["compiler.cost_ratio_geomean"] = geomean(costRatios);
    layer["compiler.memo_hits"] =
        static_cast<double>(memoAfter.hits - memoBefore.hits);
    layer["compiler.memo_misses"] =
        static_cast<double>(memoAfter.misses - memoBefore.misses);
    layer["egraph.search_s"] = search / n;
    layer["egraph.apply_s"] = apply / n;
    layer["egraph.iterations"] = iterations / n;
    layer["egraph.peak_nodes"] = peakNodes;
    layer["egraph.node_limit_stops"] = stops["node-limit"] / n;
    layer["egraph.iter_limit_stops"] = stops["iter-limit"] / n;
    layer["egraph.saturated_stops"] = stops["saturated"] / n;
    layer["egraph.step_budget_stops"] = stepStops / n;
    layer["egraph.time_limit_stops"] = stops["time-limit"] / n;
    layer["egraph.peak_mb"] = peakBytes / (1024.0 * 1024.0);
    layer["lower.lower_ms"] =
        1000 * tracer.selfSeconds("lower.lower") / distinct;
    layer["lower.instructions"] = instructions / distinct;
    layer["vm.cycles"] = cycles / distinct;
    layer["vm.scalar_cycles"] = scalarCycles / distinct;
    layer["vm.simulate_ms"] = 1000 * median(tracer.durations("vm.simulate"));
    layer["serve.hit_p50_ms"] = 1000 * median(hits);
    layer["serve.response_kb"] = responseBytes / n / 1024.0;
    layer["serve.transport_p50_ms"] = 1000 * median(transport);
    layer["serve.miss_p50_ms"] = 1000 * median(misses);
    layer["serve.queue_p50_ms"] = median(queue);
    layer["serve.compile_s"] = compileTotal;
    layer["serve.latency_p98_ms"] = 1000 * quantile(all, 0.98);

    std::ofstream details("details.jsonl");
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"workload\":\"serve-mix\",\"requests\":%zu,\"rounds\":%zu,"
                  "\"hits\":%zu,\"misses\":%zu,\"distinct_shapes\":%zu,"
                  "\"memo_hits\":%llu,\"memo_misses\":%llu,\"timed_s\":%.3f,"
                  "\"setup_s\":[",
                  exchanges.size(), exchanges.size() / kRoundSize, hits.size(),
                  misses.size(), shapes.size(),
                  static_cast<unsigned long long>(memoAfter.hits -
                                                  memoBefore.hits),
                  static_cast<unsigned long long>(memoAfter.misses -
                                                  memoBefore.misses),
                  timedSeconds);
    details << line;
    for (std::size_t i = 0; i < setupSeconds.size(); ++i) {
        std::snprintf(line, sizeof line, "%s%.3f", i ? "," : "",
                      setupSeconds[i]);
        details << line;
    }
    details << "]}\n";
    for (const auto &[label, shape] : shapes) {
        std::snprintf(line, sizeof line,
                      "{\"kernel\":\"%s\",\"ok\":%s,\"cycles\":%llu,"
                      "\"scalar_cycles\":%llu,\"cost_ratio\":%.4f}",
                      label.c_str(), shape.ok ? "true" : "false",
                      static_cast<unsigned long long>(shape.cycles),
                      static_cast<unsigned long long>(shape.scalarCycles),
                      shape.costRatio);
        details << line << '\n';
    }
    return result;
}

} // namespace perfbench
