#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

/**
 * @file
 * The benchmark's workloads. Each runs its set-up, then whole rounds
 * of its timed operations until --seconds have passed, then checks
 * every output, and returns its metrics. It works in the current
 * directory, which the driver makes fresh for every run, and writes
 * its per-kernel figures to details.jsonl there.
 */

#include <string>
#include <vector>

#include "common.h"
#include "trace.h"

namespace perfbench
{

/** compile-fusion and compile-rvv8: compiler generation from nothing,
 *  then a ladder of Fig. 4 kernels compiled, lowered and checked. */
RunResult runCompileWorkload(const Options &options, Tracer &tracer);

/** serve-mix: the daemon's defaults in-process, two closed-loop
 *  clients, a seeded stream of repeated and first-time shapes. */
RunResult runServeWorkload(const Options &options, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
