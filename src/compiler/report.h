#ifndef ISARIA_COMPILER_REPORT_H
#define ISARIA_COMPILER_REPORT_H

/**
 * @file
 * The per-compile report artifact: one schema-versioned JSON object
 * per compile() call, carrying everything a service operator needs to
 * answer "what did this request cost and did it degrade" — wall time,
 * cost trajectory, per-round saturation reports (stop reason, node /
 * class / byte counts, search and apply seconds, scheduler activity),
 * the degradation ladder, and memoization. Process-wide metrics are
 * not part of it: they describe the process, not the compile, and
 * stay with the registry's own export paths (`GET /metrics`,
 * `--metrics=FILE`, `--stats`).
 *
 * This is the exact payload the future compile-as-a-service daemon
 * (ROADMAP item 1) streams back per request; today it is reachable as
 * `--report=<file>` on every example binary (via ObsOptions) and is
 * validated in CI by tools/validate_report.py against the schema
 * spelled out there. Bump kCompileReportSchemaVersion on any
 * incompatible field change.
 */

#include <string>

#include "compiler/compiler.h"

namespace isaria
{

/** Version stamped into every CompileReport ("schema_version").
 *  v2: added "target" (the machine description's canonical name).
 *  v3: dropped the speculative loop's rollback count and the
 *  "metrics" block. */
inline constexpr int kCompileReportSchemaVersion = 3;

/** One compile() call's structured outcome. */
struct CompileReport
{
    /** Kernel label ("conv2d 4x4 k3x3"); never empty in emitted
     *  reports — makeCompileReport defaults it to "unknown". */
    std::string kernel;
    /** Canonical target name (MachineDesc::name, width-bearing);
     *  never empty — makeCompileReport defaults it to the session
     *  machine. */
    std::string target;
    CompileStats stats;

    /** The report as a single JSON object. */
    std::string toJson() const;
};

/** Builds a report for @p stats, labelled @p kernel, compiled for
 *  @p target (empty = the session machine, MachineDesc::fromEnv). */
CompileReport makeCompileReport(std::string kernel,
                                const CompileStats &stats,
                                std::string target = {});

/**
 * Serializes @p report to @p path (tempfile + rename, like every
 * other published artifact). False — with a stderr diagnostic — on
 * I/O failure.
 */
bool writeCompileReport(const std::string &path,
                        const CompileReport &report);

/** One EqSatReport as a JSON object (shared by rounds/optimization). */
std::string eqSatReportJson(const EqSatReport &report);

} // namespace isaria

#endif // ISARIA_COMPILER_REPORT_H
