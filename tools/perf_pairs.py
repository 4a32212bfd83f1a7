#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts: a parent commit and a change.

    python3 tools/perf_pairs.py PARENT_ROOT CHANGE_ROOT \\
        --workloads incast64 --pairs 10 --seconds 30 --seed 101

For each workload it runs `python3 perfbench/run.py` in the two checkout
roots by turns, one pair at a time, and swaps which side runs first on every
pair. Both sides of pair i use seed `--seed` + i. It then prints, for every
metric in the result lines, each side's median and quartiles, the ratio of
the medians, how many pairs the change won (ties count for neither side),
whether the gap between the medians exceeds the parent's interquartile
range, and, for metrics with a bound in BENCHMARK.json, whether the change's
median stays within it; then each side's failed/attempted runs. `--trace 1`
compares the per-layer metrics instead of the end-to-end ones.

Each root builds its own benchmark: run.py brings the root's .bench_build up
to date before it measures, so the first pair also builds. This script only
reads the benchmark's output; `--out FILE` saves every result line as JSON.
Exits 0 when every run printed a result line, 1 otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds, trace):
    """Runs one measurement in `root`; returns its result JSON or None."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stderr.write(f"  {root}: no result line (exit {proc.returncode})"
                         f"\n{proc.stderr[-2000:]}\n")
    return result


def quartiles(values):
    """(q1, median, q3), interpolating between the closest ranks."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def report(workload, seeds, results, spec):
    """Prints the comparison table of one workload."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    pairs = [(p, c) for p, c in zip(results["parent"], results["change"])
             if p is not None and c is not None]
    print(f"\n{workload}: {len(pairs)} complete pairs, seeds "
          f"{seeds[0]}-{seeds[-1]}")
    header = (f"{'metric':<34} {'parent median [q1-q3]':>28} "
              f"{'change median [q1-q3]':>28} {'ratio':>7} {'wins':>6} "
              f"{'gap>IQR':>7} {'bound':>6}")
    print(header)
    print("-" * len(header))
    names = [n for n in (pairs[0][1]["metrics"] if pairs else {})
             if n in metrics]
    for name in names:
        higher = metrics[name]["better"] == "higher"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(parent, change))
        gap = abs(cmed - pmed) > pq3 - pq1
        ratio = f"{cmed / pmed:.3f}" if pmed else "-"
        bound = metrics[name].get("bound")
        within = "-"
        if bound is not None and pmed:
            worse = (pmed - cmed) / pmed if higher else (cmed - pmed) / pmed
            within = "ok" if worse <= bound else "WORSE"
        print(f"{name:<34} {f'{pmed:.4g} [{pq1:.4g}-{pq3:.4g}]':>28} "
              f"{f'{cmed:.4g} [{cq1:.4g}-{cq3:.4g}]':>28} {ratio:>7} "
              f"{f'{wins}/{len(pairs)}':>6} {'yes' if gap else 'no':>7} "
              f"{within:>6}")
    for side in ("parent", "change"):
        done = [r for r in results[side] if r is not None]
        failed = sum(r["failed"] for r in done)
        attempted = sum(r["attempted"] for r in done)
        missing = len(results[side]) - len(done)
        print(f"{side}: {failed} of {attempted} runs failed"
              + (f", {missing} invocation(s) without a result line"
                 if missing else ""))


def main():
    parser = argparse.ArgumentParser(
        description="Alternating parent/change runs of perfbench.")
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--workloads", default="table2,campaign,incast64",
                        help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=101,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every result line here as JSON")
    args = parser.parse_args()

    roots = {"parent": os.path.abspath(args.parent_root),
             "change": os.path.abspath(args.change_root)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)

    saved = {}
    complete = True
    for workload in args.workloads.split(","):
        seeds = [args.seed + i for i in range(args.pairs)]
        results = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                sys.stderr.write(f"{workload} pair {i + 1}/{args.pairs} "
                                 f"seed {seed}: {side}\n")
                result = run_once(roots[side], workload, seed, args.seconds,
                                  args.trace)
                complete = complete and result is not None
                results[side].append(result)
        report(workload, seeds, results, spec)
        saved[workload] = {"seeds": seeds, **results}

    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
