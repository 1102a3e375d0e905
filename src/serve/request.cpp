#include "serve/request.h"

#include <cmath>

#include "obs/export.h"
#include "serve/json.h"
#include "term/sexpr.h"

namespace isaria::serve
{

namespace
{

/** Error at the line @p value started on. */
Error
errorAt(const JsonValue &value, std::string message)
{
    return Error{std::move(message), value.line};
}

/** Reads a non-negative integral field, bounded by @p max. */
Result<std::int64_t>
integerField(const JsonValue &value, const char *name, std::int64_t max)
{
    if (!value.isNumber() || !value.integral)
        return errorAt(value, std::string("\"") + name +
                                  "\" must be an integer");
    if (value.number < 0 || value.number > static_cast<double>(max))
        return errorAt(value, std::string("\"") + name +
                                  "\" out of range [0, " +
                                  std::to_string(max) + "]");
    return static_cast<std::int64_t>(value.number);
}

Result<KernelSpec>
parseKernelSpec(const JsonValue &kernel)
{
    if (!kernel.isObject())
        return errorAt(kernel, "\"kernel\" must be an object");
    const JsonValue *family = kernel.find("family");
    if (!family || !family->isString())
        return errorAt(kernel,
                       "\"kernel\" needs a string \"family\" member");
    std::vector<int> params;
    if (const JsonValue *p = kernel.find("params")) {
        if (!p->isArray())
            return errorAt(*p, "\"params\" must be an array of integers");
        for (const JsonValue &item : p->items) {
            auto got = integerField(item, "params", kMaxKernelParam);
            if (!got.ok())
                return got.error();
            if (got.value() < 1)
                return errorAt(item, "kernel parameters must be >= 1");
            params.push_back(static_cast<int>(got.value()));
        }
    }
    for (const auto &[key, value] : kernel.fields) {
        if (key != "family" && key != "params")
            return errorAt(value, "unknown \"kernel\" member \"" + key +
                                      "\"");
    }

    auto arity = [&](std::size_t want) -> std::optional<Error> {
        if (params.size() != want)
            return errorAt(kernel,
                           "family \"" + family->text + "\" takes " +
                               std::to_string(want) + " params, got " +
                               std::to_string(params.size()));
        return std::nullopt;
    };
    const std::string &name = family->text;
    if (name == "conv2d") {
        if (auto err = arity(4))
            return *err;
        return KernelSpec::conv2d(params[0], params[1], params[2],
                                  params[3]);
    }
    if (name == "matmul") {
        if (auto err = arity(3))
            return *err;
        return KernelSpec::matmul(params[0], params[1], params[2]);
    }
    if (name == "qprod") {
        if (auto err = arity(0))
            return *err;
        return KernelSpec::qprod();
    }
    if (name == "qrd") {
        if (auto err = arity(1))
            return *err;
        return KernelSpec::qrd(params[0]);
    }
    return errorAt(*family, "unknown kernel family \"" + name +
                                "\" (want conv2d, matmul, qprod, or "
                                "qrd)");
}

} // namespace

Result<CompileRequest>
parseCompileRequest(std::string_view body)
{
    Result<JsonValue> parsed = parseJson(body);
    if (!parsed.ok())
        return parsed.error();
    const JsonValue &root = parsed.value();
    if (!root.isObject())
        return errorAt(root, "request body must be a JSON object");

    CompileRequest request;
    const JsonValue *kernel = nullptr;
    const JsonValue *sexpr = nullptr;
    std::optional<MachineDesc> machine;

    for (const auto &[key, value] : root.fields) {
        if (key == "kernel") {
            kernel = &value;
        } else if (key == "sexpr") {
            if (!value.isString())
                return errorAt(value, "\"sexpr\" must be a string");
            sexpr = &value;
        } else if (key == "label") {
            if (!value.isString())
                return errorAt(value, "\"label\" must be a string");
            request.label = value.text;
        } else if (key == "deadline_ms") {
            auto got = integerField(value, "deadline_ms", 3'600'000);
            if (!got.ok())
                return got.error();
            request.deadlineSeconds =
                static_cast<double>(got.value()) / 1000.0;
        } else if (key == "mem_mb") {
            auto got = integerField(value, "mem_mb", 16'384);
            if (!got.ok())
                return got.error();
            request.memBytes =
                static_cast<std::size_t>(got.value()) * 1024 * 1024;
        } else if (key == "eqsat_threads") {
            auto got = integerField(value, "eqsat_threads", 64);
            if (!got.ok())
                return got.error();
            request.eqsatThreads = static_cast<int>(got.value());
        } else if (key == "scheduler") {
            if (!value.isString())
                return errorAt(value, "\"scheduler\" must be a string");
            auto parsedSched =
                eqSatSchedulerFromName(value.text.c_str());
            if (!parsedSched)
                return errorAt(value, "unknown scheduler \"" +
                                          value.text +
                                          "\" (want simple or backoff)");
            request.scheduler = *parsedSched;
        } else if (key == "max_loop_iterations") {
            auto got = integerField(value, "max_loop_iterations", 64);
            if (!got.ok())
                return got.error();
            request.maxLoopIterations = static_cast<int>(got.value());
        } else if (key == "emit_program") {
            if (!value.isBool())
                return errorAt(value,
                               "\"emit_program\" must be a boolean");
            request.emitProgram = value.boolean;
        } else if (key == "target") {
            if (!value.isString())
                return errorAt(value, "\"target\" must be a string");
            std::optional<MachineDesc> found =
                machineByName(value.text);
            if (!found)
                return errorAt(value, "unknown target \"" + value.text +
                                          "\" (known: " +
                                          knownMachineNames() + ")");
            machine = std::move(found);
        } else {
            return errorAt(value, "unknown request key \"" + key + "\"");
        }
    }

    if ((kernel == nullptr) == (sexpr == nullptr))
        return errorAt(root, "request needs exactly one of \"kernel\" "
                             "or \"sexpr\"");

    // Resolve the machine before lifting: the kernel is lifted at the
    // *target's* lane width, not a baked-in one.
    if (!machine)
        machine = MachineDesc::fromEnv();
    request.target = machine->name();

    if (kernel) {
        Result<KernelSpec> spec = parseKernelSpec(*kernel);
        if (!spec.ok())
            return spec.error();
        KernelHarness harness(spec.value(), *machine);
        request.program = harness.scalarProgram();
        if (request.label.empty())
            request.label = spec.value().label();
    } else {
        if (sexpr->text.empty())
            return errorAt(*sexpr, "\"sexpr\" must not be empty");
        // parseSexpr reports syntax errors by throwing FatalError;
        // convert to a diagnostic anchored at the "sexpr" line of the
        // request body, exactly like rules-file loading does per line.
        try {
            request.program = parseSexpr(sexpr->text);
        } catch (const FatalError &e) {
            return errorAt(*sexpr,
                           std::string("bad \"sexpr\": ") + e.what());
        }
        if (request.label.empty())
            request.label = "sexpr";
    }
    return request;
}

const char *
responseTypeName(ResponseType type)
{
    switch (type) {
      case ResponseType::Report: return "report";
      case ResponseType::DegradedReport: return "degraded-report";
      case ResponseType::Error: return "error";
      case ResponseType::Overloaded: return "overloaded";
    }
    return "?";
}

ServeResponse
makeErrorResponse(const Error &error, int status)
{
    ServeResponse response;
    response.type = ResponseType::Error;
    response.status = status;
    response.body = std::string("{\"type\":\"error\",\"error\":{") +
                    "\"message\":\"" + obs::jsonEscape(error.message) +
                    "\",\"line\":" + std::to_string(error.line) + "}}";
    return response;
}

ServeResponse
makeOverloadedResponse(const std::string &reason, std::size_t queueDepth,
                       double retryAfterSeconds)
{
    ServeResponse response;
    response.type = ResponseType::Overloaded;
    response.status = 503;
    long retryMs = std::lround(retryAfterSeconds * 1000.0);
    response.body = std::string("{\"type\":\"overloaded\",\"reason\":\"") +
                    obs::jsonEscape(reason) +
                    "\",\"queue_depth\":" + std::to_string(queueDepth) +
                    ",\"retry_after_ms\":" + std::to_string(retryMs) +
                    "}";
    return response;
}

} // namespace isaria::serve
