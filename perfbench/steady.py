#!/usr/bin/env python3
"""Measures how steady the benchmark is, and compares sets of runs.

    python3 perfbench/steady.py --runs 10 --first-seed 1 [101 ...]
                                [--trace 1] [--out FILE [FILE ...]]

It takes one set of runs per --first-seed: set j runs every
workload --runs times, with seeds first_seed[j], first_seed[j] + 1, ...
The sets are interleaved run by run (w1 set 1, w1 set 2, w2 set 1, ...,
then the next seed), so a slow drift of the machine's speed reaches
every set alike, as it reaches both sides of an alternating
parent/change comparison. Every run has BENCHMARK.json's run_seconds.
For each set it prints every metric's median, quartiles
(statistics.quantiles, n=4) and spread (quartile distance over the
median), flagged against the metric's bound: OK below a third of it,
wide up to the bound, OVER past it. It prints the share of failed
operations of every run, and with two sets or more, how far each later
set's medians are worse than the first's. --out keeps every value of
set j as JSON in the j-th file. --trace 1 reports the per-layer metrics
instead (the traced runs of README.md were made so). It exits 1 when a
later set's median is worse than the first's by more than the bound,
or the sets' failed shares differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def stats(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else float("inf")}


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    if done.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} failed")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed}: attempted {result['attempted']} "
          f"failed {result['failed']} correct {result['correct']}",
          file=sys.stderr)
    return {"workload": workload, "seed": seed, **result}


def summarize(label, runs, workloads, metrics):
    summary = {}
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w]
        shares = sorted({r["failed"] / r["attempted"] for r in mine})
        summary[w] = {"failed_shares": shares,
                      "all_correct": all(r["correct"] for r in mine)}
        print(f"\n{label} {w}: {len(mine)} runs, failed shares {shares}, "
              f"all correct {summary[w]['all_correct']}")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in mine]
            s = stats(values)
            s["values"] = values
            summary[w][m["name"]] = s
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "  OK" if s["spread"] < bound / 3 else (
                    "  wide" if s["spread"] <= bound else "  OVER")
            print(f"  {m['name']:34} {s['median']:14.6g} {s['q1']:14.6g} "
                  f"{s['q3']:14.6g} {s['spread']:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    return summary


def compare(first, second):
    """Prints how far second's medians are worse than first's; returns
    whether every shift is within its bound and the shares agree."""
    ok = True
    for w in first:
        if w not in second:
            continue
        same = first[w]["failed_shares"] == second[w]["failed_shares"]
        ok &= same
        print(f"\n{w}: failed shares {first[w]['failed_shares']} / "
              f"{second[w]['failed_shares']}{'' if same else '  DIFFER'}")
        for m in benchmark()["end_to_end"]:
            if m["name"] not in first[w] or m["name"] not in second[w]:
                continue
            a = first[w][m["name"]]["median"]
            b = second[w][m["name"]]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            within = worse <= m["bound"]
            ok &= within
            print(f"  {m['name']:24} {a:14.6g} {b:14.6g} worse by "
                  f"{worse:+8.4f} (bound {m['bound']})"
                  f"{'' if within else '  OVER'}")
    return ok


def measure(args):
    if args.out and len(args.out) != len(args.first_seed):
        sys.exit("steady: give one --out file per --first-seed")
    bench = benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    sets = [[] for _ in args.first_seed]
    for i in range(args.runs):
        for w in workloads:
            for runs, first in zip(sets, args.first_seed):
                runs.append(run_once(w, first + i, seconds, args.trace))

    summaries = []
    for j, runs in enumerate(sets):
        summary = summarize(f"set {j + 1}", runs, workloads, metrics)
        summaries.append(summary)
        if args.out:
            with open(args.out[j], "w") as f:
                json.dump({"seconds": seconds, "trace": args.trace,
                           "runs": runs, "summary": summary}, f, indent=1)
    ok = True
    for j in range(1, len(summaries)):
        print(f"\nset {j + 1} against set 1:")
        ok &= compare(summaries[0], summaries[j])
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, nargs="+", default=[1])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", nargs="+")
    measure(parser.parse_args())


if __name__ == "__main__":
    main()
