#!/usr/bin/env python3
"""Smoke-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed; that every workload (the gated ones
and udp-paced-value), untraced and traced, prints every metric BENCHMARK.json
names with its unit and passes its output checks; that the traced run writes
its span log; and that a generator which under-declares one frame fails the
reconciliation check, with a non-zero exit. Takes about a minute.
"""

import json
import math
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FAILURES = []


def check(ok, msg):
    if not ok:
        FAILURES.append(msg)
        print(f"FAIL: {msg}")


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"BENCHMARK.json keys: {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        check(NAME.match(name) is not None, f"bad name {name!r}")
    check(len(names) == len(set(names)), "names must be unique")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], f"workload {w}")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, f"metric {m}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"metric {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(m["unit"]) is not None and m["better"] in ("lower", "higher"), f"metric {m}")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in spec["end_to_end"]),
          "setup_s must be an end-to-end metric")
    return spec


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke", *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode, None


def expect_metrics(result, wanted, label):
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
    got = result["metrics"]
    check(set(got) == set(wanted), f"{label}: missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        m = got.get(name)
        if m is not None:
            check(m.get("unit") == unit, f"{label}: {name} unit {m.get('unit')} != {unit}")
            value = m.get("value")
            check(isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name} value {value}")


def main():
    spec = load_spec()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # The gated workloads, plus the paced one, which prints the same metrics
    # but is not gated (see NOTES.md).
    workloads = [w["name"] for w in spec["workloads"]] + ["udp-paced-value"]
    for name in workloads:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            label = f"{name} trace={trace}"
            code, result = run(name, trace)
            print(f"{label}: exit {code}")
            check(code == 0 and result is not None, f"{label}: exit {code}, result {result}")
            if result is not None:
                expect_metrics(result, wanted, label)
        spans = ROOT / ".bench_build" / "perfbench" / f"spans-{name}-seed7-trace1.jsonl"
        check(spans.is_file(), f"{spans} missing")
        if spans.is_file():
            first = json.loads(spans.read_text().splitlines()[0])
            check(set(first) == {"run", "id", "parent", "name", "start_ns", "end_ns"}, f"span keys {sorted(first)}")

    # A generator that declares one frame fewer than it sent must fail the
    # run's reconciliation check, and the run must say so.
    code, result = run("udp-flood-work", 0, "--under-declare", "1")
    print(f"under-declared flood: exit {code}")
    check(code != 0, "under-declared run must exit non-zero")
    check(result is not None and result["correct"] is False and result["failed"] >= 1,
          f"under-declared run must report correct=false with a failure: {result}")

    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed")
        sys.exit(1)
    print("self-test passed")


if __name__ == "__main__":
    main()
