#!/usr/bin/env python3
"""Smoke test of the benchmark itself: one tiny pass per workload.

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it runs one untraced and one traced
pass and asserts that the result line is well formed, that the gate passed,
and that every end-to-end (untraced) or per-layer (traced) metric named in
BENCHMARK.json is printed with its unit. Every per-layer metric a workload
exercises must read non-zero there, and together the workloads must
exercise every per-layer metric. It then runs `table2` expecting one
deliberately wrong verdict and asserts that the failure count rises.
Exits 0 when every assertion holds.
"""
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "0", "--trace", str(trace),
         *extra],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    not_exercised = {line.split()[0] for line in lines
                     if line.endswith("(not exercised)")}
    return proc.returncode, result, proc.stderr, not_exercised


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    exercised = set()

    def expect(condition, message):
        print(("ok    " if condition else "FAIL  ") + message)
        if not condition:
            failures.append(message)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            code, result, stderr, not_exercised = run(workload, trace)
            if result is None:
                expect(False, f"{label}: no result line (exit {code})\n"
                       f"{stderr[-2000:]}")
                continue
            expect(code == 0, f"{label}: exit code {code}")
            expect(sorted(result) ==
                   ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result has exactly the four keys")
            expect(result["correct"] is True and result["failed"] == 0 and
                   result["attempted"] >= 1,
                   f"{label}: gate passed ({result['failed']} of "
                   f"{result['attempted']} runs failed)")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            expect(got == want,
                   f"{label}: every {section} metric printed with its unit")
            expect(all(isinstance(m.get("value"), (int, float))
                       for m in result["metrics"].values()),
                   f"{label}: every metric value is a number")
            if trace == 1:
                zero = sorted(name for name, m in result["metrics"].items()
                              if name not in not_exercised and
                              m.get("value") == 0)
                expect(not zero, f"{label}: every exercised per-layer metric "
                       f"is non-zero (zero: {', '.join(zero) or 'none'})")
                exercised |= set(result["metrics"]) - not_exercised

    missing = sorted({m["name"] for m in spec["per_layer"]} - exercised)
    expect(not missing, "every per-layer metric is exercised by some "
           f"workload (never: {', '.join(missing) or 'none'})")

    code, result, _, _ = run("table2", 0, "--expect-wrong-verdict")
    raised = (result is not None and result["failed"] > 0 and
              result["correct"] is False)
    expect(raised and code != 0,
           "a wrong expected Table 2 verdict raises fail_ratio "
           f"({result and result['failed']} of "
           f"{result and result['attempted']} runs failed, exit {code})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
