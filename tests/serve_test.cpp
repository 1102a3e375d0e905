// Tests for the serve tier's socket-free core: the strict JSON
// parser, the table-driven malformed-request suite (every hostile
// body becomes a typed line-numbered error with zero state mutated),
// admission-control verdicts, the per-request CompilerConfig overlay,
// CompileService round trips against a shared warm compiler, the
// client-disconnect cancellation regression (a vanished client frees
// its compile slot within one eqsat iteration), and the process
// signal contract behind guardedMain.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "baseline/diospyros.h"
#include "compiler/compiler.h"
#include "egraph/runner.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "phase/phase.h"
#include "serve/admission.h"
#include "serve/json.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/socket.h"
#include "support/signal.h"
#include "support/timer.h"
#include "term/sexpr.h"

namespace isaria
{
namespace
{

/** Current value of the global counter @p name (0 if never touched). */
std::uint64_t
counterValue(const char *name)
{
    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    const obs::MetricValue *metric = snap.find(name);
    return metric ? metric->counter : 0;
}

/** A hand-rules compiler (no synthesis) for service round trips. */
struct CompilerFixture
{
    explicit CompilerFixture(std::size_t memoEntries = 0)
        : config([&] {
              CompilerConfig cc;
              cc.memoEntries = memoEntries;
              return cc;
          }()),
          compiler(assignPhases(diospyrosHandRules(), config.costModel),
                   config)
    {}

    CompilerConfig config;
    IsariaCompiler compiler;
};

/** Parses @p body or fails the test. */
serve::JsonValue
mustParseJson(const std::string &body)
{
    auto parsed = serve::parseJson(body);
    EXPECT_TRUE(parsed.ok()) << body << ": "
                             << (parsed.ok()
                                     ? ""
                                     : parsed.error().toString());
    return parsed.ok() ? parsed.take() : serve::JsonValue{};
}

// ---------------------------------------------------------------
// The strict JSON parser.

TEST(ServeJsonTest, ParsesScalarsAndNesting)
{
    serve::JsonValue root = mustParseJson(
        R"({"a": [1, 2.5, true, null], "b": {"c": "x"}, "n": -3})");
    ASSERT_TRUE(root.isObject());
    const serve::JsonValue *a = root.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items.size(), 4u);
    EXPECT_TRUE(a->items[0].isNumber());
    EXPECT_TRUE(a->items[0].integral);
    EXPECT_EQ(a->items[0].number, 1.0);
    EXPECT_FALSE(a->items[1].integral);
    EXPECT_EQ(a->items[1].number, 2.5);
    EXPECT_TRUE(a->items[2].isBool());
    EXPECT_TRUE(a->items[2].boolean);
    EXPECT_TRUE(a->items[3].isNull());
    const serve::JsonValue *b = root.find("b");
    ASSERT_NE(b, nullptr);
    const serve::JsonValue *c = b->find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->text, "x");
    const serve::JsonValue *n = root.find("n");
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->number, -3.0);
    EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(ServeJsonTest, DecodesStringEscapes)
{
    serve::JsonValue root =
        mustParseJson(R"({"s": "q\"b\\s\/n\nt\tuA"})");
    const serve::JsonValue *s = root.find("s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->text, "q\"b\\s/n\nt\tuA");
}

TEST(ServeJsonTest, EscapeRoundTripsThroughItsOwnWriter)
{
    std::string hostile = "a\"b\\c\nd\te\x01f";
    std::string doc =
        "{\"s\": \"" + obs::jsonEscape(hostile) + "\"}";
    serve::JsonValue root = mustParseJson(doc);
    const serve::JsonValue *s = root.find("s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->text, hostile);
}

TEST(ServeJsonTest, ValuesCarryOneBasedLineNumbers)
{
    serve::JsonValue root = mustParseJson("{\n  \"a\": 1,\n  \"b\": 2\n}");
    EXPECT_EQ(root.line, 1);
    const serve::JsonValue *a = root.find("a");
    const serve::JsonValue *b = root.find("b");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->line, 2);
    EXPECT_EQ(b->line, 3);
}

TEST(ServeJsonTest, ErrorsCarryTheFailingLine)
{
    auto parsed = serve::parseJson("{\n  \"a\": 1,\n  oops\n}");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().line, 3);
}

TEST(ServeJsonTest, RejectsTrailingGarbage)
{
    EXPECT_FALSE(serve::parseJson(R"({"a": 1} x)").ok());
    EXPECT_FALSE(serve::parseJson("1 2").ok());
}

TEST(ServeJsonTest, RejectsTruncatedDocuments)
{
    for (const char *doc :
         {"", "{", "{\"a\":", "[1, 2", "\"abc", "{\"a\" 1}", "tru"})
        EXPECT_FALSE(serve::parseJson(doc).ok()) << doc;
}

TEST(ServeJsonTest, EnforcesTheDepthBound)
{
    std::string shallow(32, '['), deep(serve::kJsonMaxDepth + 8, '[');
    shallow += "1";
    shallow += std::string(32, ']');
    deep += "1";
    deep += std::string(serve::kJsonMaxDepth + 8, ']');
    EXPECT_TRUE(serve::parseJson(shallow).ok());
    EXPECT_FALSE(serve::parseJson(deep).ok());
}

// ---------------------------------------------------------------
// Request parsing: the happy paths.

TEST(CompileRequestTest, KernelRequestGetsServerDefaults)
{
    auto parsed = serve::parseCompileRequest(
        R"({"kernel": {"family": "matmul", "params": [2, 2, 2]}})");
    ASSERT_TRUE(parsed.ok()) << parsed.error().toString();
    const serve::CompileRequest &request = parsed.value();
    EXPECT_FALSE(request.label.empty());
    EXPECT_GT(request.program.size(), 0u);
    EXPECT_EQ(request.deadlineSeconds, 0.0);
    EXPECT_EQ(request.memBytes, 0u);
    EXPECT_EQ(request.eqsatThreads, 0);
    EXPECT_FALSE(request.scheduler.has_value());
    EXPECT_EQ(request.maxLoopIterations, 0);
    EXPECT_FALSE(request.emitProgram);
}

TEST(CompileRequestTest, AllKnobsParse)
{
    auto parsed = serve::parseCompileRequest(
        R"({"kernel": {"family": "conv2d", "params": [3, 3, 2, 2]},
            "label": "my-conv", "deadline_ms": 2000, "mem_mb": 32,
            "eqsat_threads": 2, "scheduler": "backoff",
            "max_loop_iterations": 3, "emit_program": true})");
    ASSERT_TRUE(parsed.ok()) << parsed.error().toString();
    const serve::CompileRequest &request = parsed.value();
    EXPECT_EQ(request.label, "my-conv");
    EXPECT_DOUBLE_EQ(request.deadlineSeconds, 2.0);
    EXPECT_EQ(request.memBytes, 32u * 1024 * 1024);
    EXPECT_EQ(request.eqsatThreads, 2);
    ASSERT_TRUE(request.scheduler.has_value());
    EXPECT_EQ(*request.scheduler, EqSatScheduler::Backoff);
    EXPECT_EQ(request.maxLoopIterations, 3);
    EXPECT_TRUE(request.emitProgram);
}

TEST(CompileRequestTest, SexprRequestRoundTripsThePrinter)
{
    auto viaKernel = serve::parseCompileRequest(
        R"({"kernel": {"family": "matmul", "params": [2, 2, 2]}})");
    ASSERT_TRUE(viaKernel.ok());
    std::string printed = printSexpr(viaKernel.value().program);
    auto viaSexpr = serve::parseCompileRequest(
        "{\"sexpr\": \"" + obs::jsonEscape(printed) +
        "\", \"label\": \"mm\"}");
    ASSERT_TRUE(viaSexpr.ok()) << viaSexpr.error().toString();
    EXPECT_EQ(viaSexpr.value().label, "mm");
    EXPECT_EQ(printSexpr(viaSexpr.value().program), printed);
}

// ---------------------------------------------------------------
// The malformed-request table. Each row is one hostile body with the
// diagnostic substring and 1-based request line it must be refused
// with; the same table then drives the zero-state-mutation check
// below through the full CompileService path.

struct BadRequest
{
    const char *name;
    const char *body;
    /** Must appear in the error message ("" = any message). */
    const char *messagePart;
    /** Expected Error::line (0 = any line). */
    int line;
};

const BadRequest kBadRequests[] = {
    {"truncated-json", "{\"kernel\":", "", 0},
    {"binary-garbage", "\x01\x02\x7f", "", 0},
    {"not-an-object", "[1, 2]", "must be a JSON object", 1},
    {"no-kernel-or-sexpr", "{}", "exactly one of", 1},
    {"kernel-and-sexpr",
     "{\"kernel\": {\"family\": \"qprod\"}, \"sexpr\": \"(Get a 0)\"}",
     "exactly one of", 1},
    {"unknown-key", "{\n  \"kurnel\": {\"family\": \"matmul\"}\n}",
     "unknown request key \"kurnel\"", 2},
    {"unknown-kernel-member",
     "{\"kernel\": {\"family\": \"matmul\", \"parms\": [2, 2, 2]}}",
     "unknown \"kernel\" member \"parms\"", 1},
    {"family-not-string", "{\"kernel\": {\"family\": 7}}",
     "string \"family\" member", 1},
    {"unknown-family", "{\"kernel\": {\"family\": \"fft\"}}",
     "unknown kernel family \"fft\"", 1},
    {"wrong-arity",
     "{\"kernel\": {\"family\": \"matmul\", \"params\": [2, 2]}}",
     "takes 3 params, got 2", 1},
    {"param-too-large",
     "{\"kernel\": {\"family\": \"matmul\", \"params\": [2, 2, 99]}}",
     "out of range [0, 16]", 1},
    {"param-zero",
     "{\"kernel\": {\"family\": \"matmul\", \"params\": [0, 2, 2]}}",
     "parameters must be >= 1", 1},
    {"params-not-array",
     "{\"kernel\": {\"family\": \"matmul\", \"params\": 3}}",
     "\"params\" must be an array", 1},
    {"deadline-not-integer",
     "{\n  \"kernel\": {\"family\": \"qprod\"},\n  \"deadline_ms\": 2.5\n}",
     "\"deadline_ms\" must be an integer", 3},
    {"deadline-negative",
     "{\"kernel\": {\"family\": \"qprod\"}, \"deadline_ms\": -1}",
     "\"deadline_ms\" out of range", 1},
    {"mem-too-large",
     "{\"kernel\": {\"family\": \"qprod\"}, \"mem_mb\": 999999}",
     "out of range [0, 16384]", 1},
    {"unknown-scheduler",
     "{\"kernel\": {\"family\": \"qprod\"}, \"scheduler\": \"fancy\"}",
     "unknown scheduler \"fancy\"", 1},
    {"emit-program-not-bool",
     "{\"kernel\": {\"family\": \"qprod\"}, \"emit_program\": 1}",
     "\"emit_program\" must be a boolean", 1},
    {"bad-sexpr", "{\"sexpr\": \"(Vec (Get a\"}", "bad \"sexpr\"", 1},
    {"empty-sexpr", "{\"sexpr\": \"\"}", "must not be empty", 1},
};

TEST(CompileRequestTest, MalformedBodiesBecomeLineNumberedErrors)
{
    for (const BadRequest &bad : kBadRequests) {
        auto parsed = serve::parseCompileRequest(bad.body);
        ASSERT_FALSE(parsed.ok()) << bad.name;
        const Error &error = parsed.error();
        EXPECT_GE(error.line, 1) << bad.name;
        if (*bad.messagePart != '\0') {
            EXPECT_NE(error.message.find(bad.messagePart),
                      std::string::npos)
                << bad.name << ": got \"" << error.message << "\"";
        }
        if (bad.line > 0) {
            EXPECT_EQ(error.line, bad.line) << bad.name;
        }
    }
}

TEST(CompileServiceTest, MalformedRequestsMutateNoState)
{
    CompilerFixture fixture(/*memoEntries=*/8);
    serve::CompileService service(fixture.compiler, serve::ServeConfig{});

    std::uint64_t errorsBefore = counterValue("serve/errors");
    std::uint64_t admittedBefore = counterValue("serve/admitted");
    std::size_t rows = 0;
    for (const BadRequest &bad : kBadRequests) {
        serve::ServeResponse response = service.handle(bad.body);
        ++rows;
        EXPECT_EQ(response.type, serve::ResponseType::Error) << bad.name;
        EXPECT_EQ(response.status, 400) << bad.name;
        // The envelope itself must be valid JSON with the typed shape.
        serve::JsonValue body = mustParseJson(response.body);
        const serve::JsonValue *type = body.find("type");
        ASSERT_NE(type, nullptr) << bad.name;
        EXPECT_EQ(type->text, "error") << bad.name;
        const serve::JsonValue *error = body.find("error");
        ASSERT_NE(error, nullptr) << bad.name;
        const serve::JsonValue *line = error->find("line");
        ASSERT_NE(line, nullptr) << bad.name;
        EXPECT_GE(line->number, 1.0) << bad.name;
        // Zero state mutated: nothing charged, nothing memoized.
        EXPECT_EQ(service.admission().depth(), 0u) << bad.name;
        EXPECT_EQ(service.admission().chargedBytes(), 0u) << bad.name;
    }
    CompileMemo::Stats memo = fixture.compiler.memoStats();
    EXPECT_EQ(memo.insertions, 0u);
    EXPECT_EQ(memo.hits, 0u);
    EXPECT_EQ(counterValue("serve/errors"), errorsBefore + rows);
    EXPECT_EQ(counterValue("serve/admitted"), admittedBefore);
}

// ---------------------------------------------------------------
// Admission control.

TEST(AdmissionTest, VerdictLadderAdmitDegradeReject)
{
    serve::AdmissionLimits limits;
    limits.softDepth = 2;
    limits.hardDepth = 4;
    serve::AdmissionController admission(limits);

    EXPECT_EQ(admission.admit(1), serve::AdmissionVerdict::Admit);
    EXPECT_EQ(admission.admit(1), serve::AdmissionVerdict::Admit);
    EXPECT_EQ(admission.admit(1), serve::AdmissionVerdict::Degrade);
    EXPECT_EQ(admission.admit(1), serve::AdmissionVerdict::Degrade);
    EXPECT_EQ(admission.depth(), 4u);
    // The hard edge: rejected arrivals are never charged.
    EXPECT_EQ(admission.admit(1), serve::AdmissionVerdict::Reject);
    EXPECT_EQ(admission.depth(), 4u);
    // Releasing one slot re-opens the degrade band, not the admit band.
    admission.release(1);
    EXPECT_EQ(admission.admit(1), serve::AdmissionVerdict::Degrade);
    for (int i = 0; i < 4; ++i)
        admission.release(1);
    EXPECT_EQ(admission.depth(), 0u);
    EXPECT_EQ(admission.chargedBytes(), 0u);
    EXPECT_EQ(admission.admit(1), serve::AdmissionVerdict::Admit);
}

TEST(AdmissionTest, ByteCeilingRejectsIndependentlyOfDepth)
{
    serve::AdmissionLimits limits;
    limits.softDepth = 8;
    limits.hardDepth = 16;
    limits.maxBytes = 100;
    serve::AdmissionController admission(limits);

    EXPECT_EQ(admission.admit(60), serve::AdmissionVerdict::Admit);
    EXPECT_EQ(admission.admit(30), serve::AdmissionVerdict::Admit);
    EXPECT_EQ(admission.admit(20), serve::AdmissionVerdict::Reject);
    EXPECT_EQ(admission.chargedBytes(), 90u);
    admission.release(60);
    EXPECT_EQ(admission.admit(20), serve::AdmissionVerdict::Admit);
}

TEST(AdmissionTest, DrainRejectsEverything)
{
    serve::AdmissionController admission;
    EXPECT_FALSE(admission.draining());
    admission.beginDrain();
    EXPECT_TRUE(admission.draining());
    EXPECT_EQ(admission.admit(1), serve::AdmissionVerdict::Reject);
    EXPECT_EQ(admission.depth(), 0u);
}

// ---------------------------------------------------------------
// The per-request CompilerConfig overlay.

serve::CompileRequest
mustRequest(const char *body)
{
    auto parsed = serve::parseCompileRequest(body);
    EXPECT_TRUE(parsed.ok())
        << (parsed.ok() ? "" : parsed.error().toString());
    return parsed.ok() ? parsed.take() : serve::CompileRequest{};
}

TEST(EffectiveConfigTest, ServerDefaultsApplyWhenRequestNamesNothing)
{
    CompilerFixture fixture;
    serve::ServeConfig sc;
    serve::CompileService service(fixture.compiler, sc);
    serve::CompileRequest request =
        mustRequest(R"({"kernel": {"family": "qprod"}})");

    CompilerConfig cfg = service.effectiveConfig(
        request, serve::AdmissionVerdict::Admit, nullptr);
    EXPECT_EQ(cfg.expansionLimits.maxBytes, sc.defaultMemBytes);
    EXPECT_EQ(cfg.compilationLimits.maxBytes, sc.defaultMemBytes);
    EXPECT_EQ(cfg.optLimits.maxBytes, sc.defaultMemBytes);
    EXPECT_EQ(cfg.compilationLimits.numThreads, sc.defaultEqsatThreads);
    // Phase budgets already under the 30 s default deadline stay put.
    EXPECT_DOUBLE_EQ(cfg.compilationLimits.timeoutSeconds,
                     fixture.config.compilationLimits.timeoutSeconds);
    EXPECT_EQ(cfg.optLimits.cancel, nullptr);
}

TEST(EffectiveConfigTest, RequestDeadlineClampsEveryPhaseBudget)
{
    CompilerFixture fixture;
    serve::CompileService service(fixture.compiler, serve::ServeConfig{});
    serve::CompileRequest request = mustRequest(
        R"({"kernel": {"family": "qprod"}, "deadline_ms": 500})");

    CompilerConfig cfg = service.effectiveConfig(
        request, serve::AdmissionVerdict::Admit, nullptr);
    EXPECT_DOUBLE_EQ(cfg.expansionLimits.timeoutSeconds, 0.5);
    EXPECT_DOUBLE_EQ(cfg.compilationLimits.timeoutSeconds, 0.5);
    EXPECT_DOUBLE_EQ(cfg.optLimits.timeoutSeconds, 0.5);
}

TEST(EffectiveConfigTest, ServerDefaultDeadlineClampsTooLongPhases)
{
    CompilerFixture fixture;
    serve::ServeConfig sc;
    sc.defaultDeadlineSeconds = 1.0;
    serve::CompileService service(fixture.compiler, sc);
    serve::CompileRequest request =
        mustRequest(R"({"kernel": {"family": "qprod"}})");

    CompilerConfig cfg = service.effectiveConfig(
        request, serve::AdmissionVerdict::Admit, nullptr);
    // 2.0 s compilation budget clamps to the 1 s deadline; the 0.8 s
    // expansion budget is already inside it.
    EXPECT_DOUBLE_EQ(cfg.compilationLimits.timeoutSeconds, 1.0);
    EXPECT_DOUBLE_EQ(
        cfg.expansionLimits.timeoutSeconds,
        fixture.config.expansionLimits.timeoutSeconds);
}

TEST(EffectiveConfigTest, DegradeVerdictShrinksBudgets)
{
    CompilerFixture fixture;
    serve::ServeConfig sc;
    sc.admission.degradeScale = 0.5;
    serve::CompileService service(fixture.compiler, sc);
    serve::CompileRequest request =
        mustRequest(R"({"kernel": {"family": "qprod"}})");

    CompilerConfig clean = service.effectiveConfig(
        request, serve::AdmissionVerdict::Admit, nullptr);
    CompilerConfig degraded = service.effectiveConfig(
        request, serve::AdmissionVerdict::Degrade, nullptr);
    EXPECT_LT(degraded.compilationLimits.timeoutSeconds,
              clean.compilationLimits.timeoutSeconds);
    EXPECT_LT(degraded.compilationLimits.maxNodes,
              clean.compilationLimits.maxNodes);
    EXPECT_EQ(degraded.compilationLimits.scheduler,
              EqSatScheduler::Backoff);
    EXPECT_EQ(degraded.maxLoopIterations,
              std::max(1, clean.maxLoopIterations / 2));
}

TEST(EffectiveConfigTest, RequestKnobsOverrideServerDefaults)
{
    CompilerFixture fixture;
    serve::CompileService service(fixture.compiler, serve::ServeConfig{});
    serve::CompileRequest request = mustRequest(
        R"({"kernel": {"family": "qprod"}, "mem_mb": 32,
            "eqsat_threads": 2, "scheduler": "backoff",
            "max_loop_iterations": 3})");

    CancellationToken token;
    CompilerConfig cfg = service.effectiveConfig(
        request, serve::AdmissionVerdict::Admit, &token);
    EXPECT_EQ(cfg.optLimits.maxBytes, 32u * 1024 * 1024);
    EXPECT_EQ(cfg.optLimits.numThreads, 2);
    EXPECT_EQ(cfg.optLimits.scheduler, EqSatScheduler::Backoff);
    EXPECT_EQ(cfg.maxLoopIterations, 3);
    EXPECT_EQ(cfg.expansionLimits.cancel, &token);
    EXPECT_EQ(cfg.compilationLimits.cancel, &token);
    EXPECT_EQ(cfg.optLimits.cancel, &token);
}

// ---------------------------------------------------------------
// CompileService round trips against a shared warm compiler.

TEST(CompileServiceTest, CleanCompileThenSharedMemoHit)
{
    CompilerFixture fixture(/*memoEntries=*/8);
    serve::CompileService service(fixture.compiler, serve::ServeConfig{});
    std::string body =
        R"({"kernel": {"family": "matmul", "params": [2, 2, 2]}})";

    serve::ServeResponse first = service.handle(body);
    EXPECT_EQ(first.status, 200);
    EXPECT_EQ(first.type, serve::ResponseType::Report);
    serve::JsonValue env = mustParseJson(first.body);
    ASSERT_NE(env.find("type"), nullptr);
    EXPECT_EQ(env.find("type")->text, "report");
    EXPECT_EQ(env.find("verdict")->text, "admit");
    EXPECT_EQ(env.find("degrade_level")->text, "none");
    const serve::JsonValue *report = env.find("report");
    ASSERT_NE(report, nullptr);
    ASSERT_NE(report->find("memo_hit"), nullptr);
    EXPECT_FALSE(report->find("memo_hit")->boolean);

    serve::ServeResponse second = service.handle(body);
    EXPECT_EQ(second.status, 200);
    serve::JsonValue env2 = mustParseJson(second.body);
    const serve::JsonValue *report2 = env2.find("report");
    ASSERT_NE(report2, nullptr);
    ASSERT_NE(report2->find("memo_hit"), nullptr);
    EXPECT_TRUE(report2->find("memo_hit")->boolean);
    EXPECT_GE(fixture.compiler.memoStats().hits, 1u);
    // Both requests returned their admission charge.
    EXPECT_EQ(service.admission().depth(), 0u);
    EXPECT_EQ(service.admission().chargedBytes(), 0u);
}

TEST(CompileServiceTest, EmitProgramEchoesACompiledSexpr)
{
    CompilerFixture fixture;
    serve::CompileService service(fixture.compiler, serve::ServeConfig{});
    serve::ServeResponse response = service.handle(
        R"({"kernel": {"family": "matmul", "params": [2, 2, 2]},
            "emit_program": true})");
    ASSERT_EQ(response.status, 200);
    serve::JsonValue env = mustParseJson(response.body);
    const serve::JsonValue *program = env.find("program");
    ASSERT_NE(program, nullptr);
    ASSERT_TRUE(program->isString());
    // The echoed program must be a parseable sexpr.
    EXPECT_NO_THROW((void)parseSexpr(program->text));
}

TEST(CompileServiceTest, CancelledTokenStillAnswersTypedDegraded)
{
    CompilerFixture fixture(/*memoEntries=*/8);
    serve::CompileService service(fixture.compiler, serve::ServeConfig{});
    CancellationToken token;
    token.cancel();

    serve::ServeResponse response = service.handle(
        R"({"kernel": {"family": "conv2d", "params": [3, 3, 2, 2]}})",
        &token);
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.type, serve::ResponseType::DegradedReport);
    serve::JsonValue env = mustParseJson(response.body);
    EXPECT_EQ(env.find("type")->text, "degraded-report");
    EXPECT_NE(env.find("degrade_level")->text, "none");
    // A degraded result must never seed the shared memo.
    EXPECT_EQ(fixture.compiler.memoStats().insertions, 0u);
    EXPECT_EQ(service.admission().depth(), 0u);
}

TEST(CompileServiceTest, OversizedBodyRejectedWith413)
{
    CompilerFixture fixture;
    serve::ServeConfig sc;
    sc.maxBodyBytes = 64;
    serve::CompileService service(fixture.compiler, sc);
    std::string body =
        R"({"kernel": {"family": "matmul", "params": [2, 2, 2]},)";
    body += R"( "label": ")" + std::string(80, 'x') + "\"}";
    ASSERT_GT(body.size(), sc.maxBodyBytes);

    serve::ServeResponse response = service.handle(body);
    EXPECT_EQ(response.status, 413);
    EXPECT_EQ(response.type, serve::ResponseType::Error);
    serve::JsonValue env = mustParseJson(response.body);
    EXPECT_EQ(env.find("type")->text, "error");
    EXPECT_EQ(service.admission().depth(), 0u);
    EXPECT_EQ(service.admission().chargedBytes(), 0u);
}

TEST(CompileServiceTest, HardOverloadGetsTypedOverloadedResponse)
{
    CompilerFixture fixture;
    serve::ServeConfig sc;
    sc.admission.softDepth = 0;
    sc.admission.hardDepth = 0;
    serve::CompileService service(fixture.compiler, sc);

    serve::ServeResponse response = service.handle(
        R"({"kernel": {"family": "matmul", "params": [2, 2, 2]}})");
    EXPECT_EQ(response.status, 503);
    EXPECT_EQ(response.type, serve::ResponseType::Overloaded);
    serve::JsonValue env = mustParseJson(response.body);
    EXPECT_EQ(env.find("type")->text, "overloaded");
    EXPECT_EQ(env.find("reason")->text, "queue-full");
    ASSERT_NE(env.find("retry_after_ms"), nullptr);
    EXPECT_EQ(env.find("retry_after_ms")->number, 250.0);
}

TEST(CompileServiceTest, DrainingServiceRejectsWithDrainingReason)
{
    CompilerFixture fixture;
    serve::CompileService service(fixture.compiler, serve::ServeConfig{});
    service.admission().beginDrain();

    serve::ServeResponse response = service.handle(
        R"({"kernel": {"family": "matmul", "params": [2, 2, 2]}})");
    EXPECT_EQ(response.status, 503);
    EXPECT_EQ(response.type, serve::ResponseType::Overloaded);
    serve::JsonValue env = mustParseJson(response.body);
    EXPECT_EQ(env.find("reason")->text, "draining");
}

// ---------------------------------------------------------------
// The client-disconnect cancellation regression (satellite of the
// serve tier): a client that vanishes mid-compile must not pin its
// worker for the full deadline. The monitor thread notices the dead
// peer, trips the request's token, and the saturation polls it within
// one iteration — so the slot, the admission charge, and the e-graph
// bytes all come back long before the hour-long deadline.

TEST(ServeServerTest, DisconnectCancelsInFlightCompile)
{
    CompilerFixture fixture;
    serve::ServeConfig sc;
    sc.socketPath =
        "isaria_serve_test_" + std::to_string(::getpid()) + ".sock";
    sc.workers = 1;
    serve::ServeServer server(fixture.compiler, sc);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    std::uint64_t cancelledBefore =
        counterValue("serve/disconnect_cancelled");
    // A deliberately huge compile: an hour of deadline and a deep
    // improve loop. Only cancellation can finish this quickly.
    std::string body =
        R"({"kernel": {"family": "conv2d", "params": [5, 5, 3, 3]},
            "deadline_ms": 3600000, "max_loop_iterations": 64})";
    {
        std::string err;
        UniqueFd fd = serve::connectUnix(sc.socketPath, &err);
        ASSERT_TRUE(static_cast<bool>(fd)) << err;
        std::string frame =
            "POST /compile HTTP/1.1\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
        ASSERT_EQ(::send(fd.get(), frame.data(), frame.size(),
                         MSG_NOSIGNAL),
                  static_cast<ssize_t>(frame.size()));
        for (int i = 0; i < 5000 && server.activeRequests() < 1; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ASSERT_GE(server.activeRequests(), 1u);
    } // the client hangs up here, mid-compile

    Stopwatch sinceHangup;
    while (server.activeRequests() > 0 &&
           sinceHangup.elapsedSeconds() < 30.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(server.activeRequests(), 0u);
    EXPECT_GE(counterValue("serve/disconnect_cancelled"),
              cancelledBefore + 1);
    // The admission charge came back with the slot.
    EXPECT_EQ(server.service().admission().depth(), 0u);
    EXPECT_EQ(server.service().admission().chargedBytes(), 0u);
    server.stopAndJoin();
}

// ---------------------------------------------------------------
// The process signal contract behind guardedMain (the daemon's
// SIGTERM drain and the socket tier's SIGPIPE immunity).

TEST(SignalTest, SigpipeIsIgnoredAfterInstall)
{
    installProcessSignalHandlers();
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::close(fds[0]), 0);
    // Writing into a hung-up peer raises SIGPIPE; with the handler
    // installed the process survives and sees EPIPE instead. A plain
    // write() (no MSG_NOSIGNAL) so the disposition itself is tested.
    ssize_t n = 0;
    for (int i = 0; i < 3 && n >= 0; ++i)
        n = ::write(fds[1], "x", 1);
    EXPECT_EQ(n, -1);
    EXPECT_EQ(errno, EPIPE);
    ::close(fds[1]);
}

TEST(SignalTest, SigtermTripsTheShutdownToken)
{
    installProcessSignalHandlers();
    resetProcessShutdownForTests();
    EXPECT_FALSE(processShutdownToken().cancelled());
    EXPECT_EQ(lastShutdownSignal(), 0);

    // raise() runs the handler synchronously on this thread; the
    // first signal takes the graceful path (cancel the token), so the
    // test process survives to observe it.
    ASSERT_EQ(std::raise(SIGTERM), 0);
    EXPECT_TRUE(processShutdownToken().cancelled());
    EXPECT_EQ(lastShutdownSignal(), SIGTERM);
    resetProcessShutdownForTests();
    EXPECT_FALSE(processShutdownToken().cancelled());
}

} // namespace
} // namespace isaria
