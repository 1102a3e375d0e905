#include "serve/service.h"

#include <algorithm>
#include <cmath>

#include "compiler/report.h"
#include "isa/machine_desc.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/json.h"
#include "support/timer.h"
#include "term/sexpr.h"

namespace isaria::serve
{

namespace
{

std::uint64_t
toNanos(double seconds)
{
    if (seconds <= 0)
        return 0;
    return static_cast<std::uint64_t>(seconds * 1e9);
}

long
toMillis(double seconds)
{
    return std::lround(std::max(0.0, seconds) * 1000.0);
}

} // namespace

CompileService::CompileService(const IsariaCompiler &compiler,
                               ServeConfig config)
    : compiler_(compiler), config_(std::move(config)),
      admission_(config_.admission)
{
    targets_.emplace_back(MachineDesc::fromEnv().name(), &compiler_);
}

void
CompileService::addTarget(const std::string &name,
                          const IsariaCompiler &compiler)
{
    for (auto &[existing, slot] : targets_) {
        if (existing == name) {
            slot = &compiler;
            return;
        }
    }
    targets_.emplace_back(name, &compiler);
}

const IsariaCompiler *
CompileService::compilerFor(const std::string &target) const
{
    if (target.empty())
        return targets_.front().second;
    for (const auto &[name, compiler] : targets_) {
        if (name == target)
            return compiler;
    }
    return nullptr;
}

Intake
CompileService::intake(std::string_view body)
{
    static const obs::CounterHandle cRequests =
        obs::metricCounter("serve/requests");
    static const obs::CounterHandle cErrors =
        obs::metricCounter("serve/errors");
    static const obs::CounterHandle cAdmitted =
        obs::metricCounter("serve/admitted");
    static const obs::CounterHandle cDegraded =
        obs::metricCounter("serve/admitted_degraded");
    static const obs::CounterHandle cRejectedOverload =
        obs::metricCounter("serve/rejected_overload");
    static const obs::CounterHandle cRejectedDraining =
        obs::metricCounter("serve/rejected_draining");
    obs::metricAdd(cRequests);

    Intake out;
    if (body.size() > config_.maxBodyBytes) {
        obs::metricAdd(cErrors);
        out.response = makeErrorResponse(
            Error{"payload of " + std::to_string(body.size()) +
                      " bytes exceeds the " +
                      std::to_string(config_.maxBodyBytes) +
                      "-byte limit",
                  1},
            413);
        return out;
    }

    Result<CompileRequest> parsed = parseCompileRequest(body);
    if (!parsed.ok()) {
        obs::metricAdd(cErrors);
        out.response = makeErrorResponse(parsed.error());
        return out;
    }

    AdmissionVerdict verdict = admission_.admit(body.size());
    if (verdict == AdmissionVerdict::Reject) {
        bool draining = admission_.draining();
        obs::metricAdd(draining ? cRejectedDraining : cRejectedOverload);
        std::string reason = draining ? "draining"
                             : admission_.depth() >=
                                     admission_.limits().hardDepth
                                 ? "queue-full"
                                 : "bytes-full";
        out.response = makeOverloadedResponse(reason, admission_.depth(),
                                              config_.retryAfterSeconds);
        return out;
    }

    obs::metricAdd(verdict == AdmissionVerdict::Degrade ? cDegraded
                                                        : cAdmitted);
    out.admitted = true;
    out.request = std::move(parsed.value());
    out.verdict = verdict;
    return out;
}

CompilerConfig
CompileService::effectiveConfig(const CompileRequest &request,
                               AdmissionVerdict verdict,
                               const CancellationToken *cancel) const
{
    // Base config comes from the compiler serving the request's
    // target (falling back to the default compiler for requests built
    // outside intake(), e.g. the config tests).
    const IsariaCompiler *serving = compilerFor(request.target);
    CompilerConfig cfg =
        serving ? serving->config() : compiler_.config();
    cfg.withMemLimitBytes(request.memBytes ? request.memBytes
                                           : config_.defaultMemBytes);
    cfg.withEqSatThreads(request.eqsatThreads
                             ? request.eqsatThreads
                             : config_.defaultEqsatThreads);
    if (request.scheduler)
        cfg.withScheduler(*request.scheduler);
    if (request.maxLoopIterations > 0)
        cfg.maxLoopIterations = request.maxLoopIterations;

    // The request deadline arrives twice: the token (tripped by the
    // server's monitor thread) is the hard edge, and clamping each
    // saturation's wall budget to the whole-request deadline keeps a
    // single phase from eating the entire allowance up front.
    double deadline = request.deadlineSeconds > 0
                          ? request.deadlineSeconds
                          : config_.defaultDeadlineSeconds;
    if (deadline > 0) {
        for (EqSatLimits *limits : {&cfg.expansionLimits,
                                    &cfg.compilationLimits,
                                    &cfg.optLimits}) {
            if (limits->timeoutSeconds <= 0 ||
                limits->timeoutSeconds > deadline)
                limits->timeoutSeconds = deadline;
        }
    }

    if (verdict == AdmissionVerdict::Degrade)
        cfg = cfg.scaledForPressure(config_.admission.degradeScale);
    cfg.withCancellation(cancel);
    return cfg;
}

ServeResponse
CompileService::compileAdmitted(const CompileRequest &request,
                                AdmissionVerdict verdict,
                                const CancellationToken *cancel,
                                double queueSeconds)
{
    static const obs::HistogramHandle hCompile =
        obs::metricHistogram("serve/compile_ns");
    static const obs::HistogramHandle hQueue =
        obs::metricHistogram("serve/queue_ns");
    static const obs::CounterHandle cClean =
        obs::metricCounter("serve/compiled_clean");
    static const obs::CounterHandle cDegradedResult =
        obs::metricCounter("serve/compiled_degraded");
    obs::metricRecord(hQueue, toNanos(queueSeconds));

    const IsariaCompiler *serving = compilerFor(request.target);
    if (!serving) {
        // intake() validated the name against the machine registry,
        // but this daemon may simply not have a compiler loaded for
        // it. Charge nothing extra; answer with a typed error.
        static const obs::CounterHandle cErrors =
            obs::metricCounter("serve/errors");
        obs::metricAdd(cErrors);
        return makeErrorResponse(
            Error{"target \"" + request.target +
                      "\" is not served by this daemon",
                  1});
    }

    CompilerConfig cfg = effectiveConfig(request, verdict, cancel);
    // Only full-budget compiles may seed the shared memo: a result cut
    // by soft pressure must not pin a worse program for future
    // requests (the clean-run check inside compile() then filters any
    // degraded outcome on the full-budget path too).
    bool memoWrite = verdict == AdmissionVerdict::Admit;

    Stopwatch watch;
    CompileStats stats;
    RecExpr compiled =
        serving->compile(request.program, cfg, &stats, memoWrite);
    double compileSeconds = watch.elapsedSeconds();
    obs::metricRecord(hCompile, toNanos(compileSeconds));

    bool degraded = verdict == AdmissionVerdict::Degrade ||
                    stats.degradation != DegradeLevel::None;
    obs::metricAdd(degraded ? cDegradedResult : cClean);

    CompileReport report =
        makeCompileReport(request.label, stats, request.target);
    ServeResponse response;
    response.type = degraded ? ResponseType::DegradedReport
                             : ResponseType::Report;
    response.status = 200;
    response.body = std::string("{\"type\":\"") +
                    responseTypeName(response.type) + "\",\"verdict\":\"" +
                    admissionVerdictName(verdict) + "\",\"degrade_level\":\"" +
                    degradeLevelName(stats.degradation) + "\",\"queue_ms\":" +
                    std::to_string(toMillis(queueSeconds)) +
                    ",\"compile_ms\":" +
                    std::to_string(toMillis(compileSeconds)) +
                    ",\"report\":" + report.toJson();
    if (request.emitProgram)
        response.body += std::string(",\"program\":\"") +
                         obs::jsonEscape(printSexpr(compiled)) + "\"";
    response.body += "}";
    return response;
}

void
CompileService::finish(std::size_t payloadBytes)
{
    admission_.release(payloadBytes);
}

ServeResponse
CompileService::handle(std::string_view body,
                       const CancellationToken *cancel)
{
    Intake in = intake(body);
    if (!in.admitted)
        return in.response;
    ServeResponse response =
        compileAdmitted(in.request, in.verdict, cancel,
                        /*queueSeconds=*/0.0);
    finish(body.size());
    return response;
}

} // namespace isaria::serve
