#!/usr/bin/env python3
"""Validates an isaria CompileReport JSON artifact (--report=<file>).

Standard library only (CI images carry no jsonschema). Checks: the
file is a single JSON object; schema_version matches; every required
top-level field is present with the right type; degradation is one of
the known ladder levels; and each round carries well-formed EqSat
sub-reports.

Usage: validate_report.py REPORT.json [REPORT.json ...]
Exits 0 when all reports are valid, 1 with a diagnostic otherwise.
"""

import json
import sys

SCHEMA_VERSION = 3

DEGRADE_LEVELS = {"none", "best-so-far", "round-fallback",
                  "scalar-fallback"}

# field -> expected python type(s); bool checked before int because
# bool is an int subclass in Python.
TOP_REQUIRED = {
    "schema_version": int,
    "kernel": str,
    "target": str,
    "wall_ns": int,
    "initial_cost": int,
    "final_cost": int,
    "loop_iterations": int,
    "eqsat_calls": int,
    "peak_nodes": int,
    "ran_out_of_memory": bool,
    "memo_hit": bool,
    "degradation": str,
    "faults_injected": int,
    "degrade_events": list,
    "rounds": list,
    "ran_optimization": bool,
}

EQSAT_REQUIRED = {
    "stop": str,
    "iterations": int,
    "nodes": int,
    "classes": int,
    "bytes": int,
    "wall_ns": int,
    "search_ns": int,
    "apply_ns": int,
    "threads": int,
    "step_budget_exhausted": bool,
    "fault_injected": bool,
    "sched_bans": int,
    "sched_skipped_searches": int,
    "sched_throttled_matches": int,
}


def fail(message):
    print(f"validate_report: {message}", file=sys.stderr)
    sys.exit(1)


def check_fields(obj, spec, where):
    for key, expected in spec.items():
        if key not in obj:
            fail(f"{where}: missing '{key}'")
        value = obj[key]
        if expected is int and isinstance(value, bool):
            fail(f"{where}: field '{key}' is bool, expected int")
        if expected is bool:
            if not isinstance(value, bool):
                fail(
                    f"{where}: field '{key}' is "
                    f"{type(value).__name__}, expected bool"
                )
        elif not isinstance(value, expected):
            fail(
                f"{where}: field '{key}' is {type(value).__name__}, "
                f"expected {expected.__name__}"
            )


def check_eqsat(obj, where):
    if not isinstance(obj, dict):
        fail(f"{where}: not a JSON object")
    check_fields(obj, EQSAT_REQUIRED, where)


def check_report(path):
    with open(path, encoding="utf-8") as handle:
        try:
            report = json.load(handle)
        except json.JSONDecodeError as err:
            fail(f"{path}: not valid JSON ({err})")
    if not isinstance(report, dict):
        fail(f"{path}: not a JSON object")

    check_fields(report, TOP_REQUIRED, path)
    if report["schema_version"] != SCHEMA_VERSION:
        fail(
            f"{path}: schema_version {report['schema_version']} "
            f"!= expected {SCHEMA_VERSION}"
        )
    if not report["kernel"]:
        fail(f"{path}: empty kernel label")
    if not report["target"]:
        fail(f"{path}: empty target name")
    if report["degradation"] not in DEGRADE_LEVELS:
        fail(
            f"{path}: unknown degradation "
            f"{report['degradation']!r}"
        )
    for event in report["degrade_events"]:
        if not isinstance(event, str):
            fail(f"{path}: degrade_events entry is not a string")

    for i, round_obj in enumerate(report["rounds"]):
        where = f"{path}: rounds[{i}]"
        if not isinstance(round_obj, dict):
            fail(f"{where}: not a JSON object")
        check_fields(
            round_obj,
            {"round": int, "ran_expansion": bool,
             "compilation": dict, "extracted_cost": int},
            where,
        )
        if round_obj["ran_expansion"]:
            if "expansion" not in round_obj:
                fail(f"{where}: ran_expansion without 'expansion'")
            check_eqsat(round_obj["expansion"], f"{where}.expansion")
        check_eqsat(round_obj["compilation"], f"{where}.compilation")

    if report["ran_optimization"]:
        if "optimization" not in report:
            fail(f"{path}: ran_optimization without 'optimization'")
        check_eqsat(report["optimization"], f"{path}: optimization")

    print(
        f"validate_report: ok ({path}: kernel "
        f"{report['kernel']!r}, target {report['target']!r}, "
        f"{len(report['rounds'])} rounds, "
        f"degradation {report['degradation']})"
    )


def main():
    if len(sys.argv) < 2:
        fail("usage: validate_report.py REPORT.json [REPORT.json ...]")
    for path in sys.argv[1:]:
        check_report(path)


if __name__ == "__main__":
    main()
