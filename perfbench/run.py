#!/usr/bin/env python3
"""Runs one workload of the Isaria benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the benchmark driver and
the library from source (Release, into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench), clears every ISARIA_* variable, makes
a fresh directory for the run under perfbench/runs/ (rule caches,
socket, spans, details), runs the driver there and prints the driver's
JSON result as the last line of standard output. Build output and
diagnostics go to standard error. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile-fusion", "compile-rvv8", "serve-mix")
# A run must end within 180 s; the driver binary gets 170 of them.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/; run from a full checkout", 2)
    out = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except FileNotFoundError:
            fail("cmake is not installed")
        except subprocess.TimeoutExpired:
            fail("the build took too long")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "perfbench_driver")


def pinned_cpus(workload):
    """The CPUs the run may use: one for a compile workload (it is
    single-threaded), two for serve-mix (its two compile workers). On
    the 4-vCPU reference machine, hand-offs between threads on idle
    vCPUs made serve-mix's latency median wander by 20% from run to
    run; on two CPUs it stayed within a few percent (README.md)."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-(2 if workload == "serve-mix" else 1):]


def pinned_environment():
    """The caller's environment without any ISARIA_* variable, so no
    tracer, fault plan, target, cache or thread count leaks in."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("ISARIA_")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        fail("--seconds must be positive", 2)

    driver = build()
    run_dir = os.path.join(
        HERE, "runs",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    os.makedirs(run_dir)
    command = [driver, "--workload", args.workload,
               "--seed", str(args.seed % 2**64),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    cpus = pinned_cpus(args.workload)
    try:
        done = subprocess.run(command, cwd=run_dir, env=pinned_environment(),
                              preexec_fn=lambda: os.sched_setaffinity(0, cpus),
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{args.workload} failed (exit {done.returncode})")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the driver printed no result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result: {lines[-1]}")
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
