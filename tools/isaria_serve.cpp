// The compile-as-a-service daemon (ROADMAP item 1): one long-running
// process, one warm rule system + compile memo, many requests.
//
//   isaria_serve --socket=/tmp/isaria.sock [--workers=N]
//                [--soft-depth=N] [--hard-depth=N]
//                [--max-inflight-mb=N] [--deadline-ms=N] [--mem-mb=N]
//                [--drain-ms=N] [--memo-entries=N] [--synth]
//                [--budget=SECONDS] [--metrics-out=PATH]
//
// Clients speak the minimal HTTP subset of src/serve/socket.h over
// the unix socket:
//
//   curl --unix-socket /tmp/isaria.sock http://localhost/compile
//        -d '{"kernel": {"family": "matmul", "params": [2, 2, 2]}}'
//   (one line; split here for width)
//   curl --unix-socket /tmp/isaria.sock http://localhost/metrics
//
// By default the rule system is the hand-written Diospyros set
// (instant startup, deterministic), whose width-4 patterns serve only
// the 4-lane machine descriptions; --synth runs the full offline
// synthesis pipeline against the persistent rule cache first and
// serves every known machine description.
//
// A request picks a served machine with its "target" key (e.g.
// {"target": "rvv8"} on a --synth daemon); any other known target gets
// a typed error, and a request without one goes to the session default
// (ISARIA_TARGET env, else fusion-g3-w4), which must be served: without
// --synth it must be a 4-lane machine.
//
// Shutdown: SIGTERM/SIGINT trip the process shutdown token
// (installed by guardedMain), the daemon drains — new requests get
// typed `overloaded` responses, in-flight compiles finish (cut to
// best-so-far past --drain-ms) — and the final OpenMetrics page is
// flushed. A second signal force-kills via the default disposition.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <thread>

#include "baseline/diospyros.h"
#include "cache/rule_cache.h"
#include "compiler/pipeline.h"
#include "isa/machine_desc.h"
#include "phase/phase.h"
#include "serve/server.h"
#include "support/panic.h"
#include "support/signal.h"

using namespace isaria;

int
main(int argc, char **argv)
{
    return guardedMain([&] {
        serve::ServeConfig sc;
        sc.socketPath = "/tmp/isaria.sock";
        std::size_t memoEntries = 64;
        bool synthesize = false;
        double synthBudget = 20;

        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto numAfter = [&](std::size_t prefix) {
                return std::atof(arg.c_str() + prefix);
            };
            if (arg.rfind("--socket=", 0) == 0) {
                sc.socketPath = arg.substr(9);
            } else if (arg.rfind("--workers=", 0) == 0) {
                sc.workers = std::atoi(arg.c_str() + 10);
            } else if (arg.rfind("--soft-depth=", 0) == 0) {
                sc.admission.softDepth =
                    static_cast<std::size_t>(numAfter(13));
            } else if (arg.rfind("--hard-depth=", 0) == 0) {
                sc.admission.hardDepth =
                    static_cast<std::size_t>(numAfter(13));
            } else if (arg.rfind("--max-inflight-mb=", 0) == 0) {
                sc.admission.maxBytes =
                    static_cast<std::size_t>(numAfter(18)) * 1024 * 1024;
            } else if (arg.rfind("--deadline-ms=", 0) == 0) {
                sc.defaultDeadlineSeconds = numAfter(14) / 1000.0;
            } else if (arg.rfind("--mem-mb=", 0) == 0) {
                sc.defaultMemBytes =
                    static_cast<std::size_t>(numAfter(9)) * 1024 * 1024;
            } else if (arg.rfind("--drain-ms=", 0) == 0) {
                sc.drainDeadlineSeconds = numAfter(11) / 1000.0;
            } else if (arg.rfind("--memo-entries=", 0) == 0) {
                memoEntries = static_cast<std::size_t>(numAfter(15));
            } else if (arg == "--synth") {
                synthesize = true;
            } else if (arg.rfind("--budget=", 0) == 0) {
                synthBudget = numAfter(9);
            } else if (arg.rfind("--metrics-out=", 0) == 0) {
                sc.finalMetricsPath = arg.substr(14);
            } else {
                std::fprintf(stderr, "isaria_serve: unknown argument %s\n",
                             arg.c_str());
                return 2;
            }
        }

        // One compiler per served machine description, each with that
        // machine's cost model and registered under that machine's
        // name; the daemon routes by the request's "target" key and
        // answers any other target with a typed error. The hand-written
        // rules only match 4-lane Vecs, so without --synth the daemon
        // serves only 4-lane machines. std::deque keeps the references
        // handed to the server stable as we append.
        constexpr int kHandRuleLanes = 4;
        const std::string defaultName = MachineDesc::fromEnv().name();
        struct Served
        {
            std::string machine;
            IsariaCompiler compiler;
        };
        RuleCache cache = RuleCache::fromEnv();
        std::deque<Served> served;
        const IsariaCompiler *defaultCompiler = nullptr;
        for (const MachineDesc &machine : knownMachines()) {
            if (!synthesize && machine.vectorWidth != kHandRuleLanes)
                continue;
            CompilerConfig cc = compilerConfigFor(machine);
            cc.memoEntries = memoEntries;
            if (synthesize) {
                SynthConfig synth = synthConfigFor(machine);
                synth.timeoutSeconds = synthBudget;
                std::fprintf(stderr,
                             "isaria_serve: generating rules for %s "
                             "(budget %.0fs)...\n",
                             machine.name().c_str(), synthBudget);
                served.push_back(
                    {machine.name(),
                     generateCompiler(IsaSpec(machine), cache, synth, cc)
                         .compiler});
            } else {
                served.push_back(
                    {machine.name(),
                     IsariaCompiler(
                         assignPhases(diospyrosHandRules(), cc.costModel),
                         cc)});
            }
            if (machine.name() == defaultName)
                defaultCompiler = &served.back().compiler;
        }
        if (!defaultCompiler) {
            // The session default comes from the same registry, so
            // only a hand-rule daemon can leave it unserved.
            std::fprintf(stderr,
                         "isaria_serve: the hand-written rules serve "
                         "only %d-lane targets; run with --synth to "
                         "serve %s\n",
                         kHandRuleLanes, defaultName.c_str());
            return 2;
        }

        serve::ServeServer server(*defaultCompiler, sc);
        for (const Served &entry : served)
            server.addTarget(entry.machine, entry.compiler);
        std::string error;
        if (!server.start(&error)) {
            std::fprintf(stderr, "isaria_serve: %s\n", error.c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "isaria_serve: listening on %s (%d workers, "
                     "soft %zu / hard %zu)\n",
                     sc.socketPath.c_str(), sc.workers,
                     sc.admission.softDepth, sc.admission.hardDepth);

        const CancellationToken &shutdown = processShutdownToken();
        while (!shutdown.cancelled())
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        std::fprintf(stderr,
                     "isaria_serve: signal %d, draining (%.1fs)...\n",
                     lastShutdownSignal(), sc.drainDeadlineSeconds);
        server.stopAndJoin();
        std::fprintf(stderr, "isaria_serve: drained, bye\n");
        return 0;
    });
}
