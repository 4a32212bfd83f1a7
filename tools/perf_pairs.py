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
reads the benchmark's output. `--out FILE` saves, per workload, every result
line (each with perfbench's `machine` fingerprint and the host-probe median
of its `unscaled` line) and the printed comparison: per metric, each side's
median and quartiles, the pairs the change won, and the gap>IQR flag.
Exits 0 when every run printed a result line, 1 otherwise.
"""
import argparse
import json
import os
import re
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
        return None
    for line in lines:
        if line.startswith("machine "):
            # nproc=4 clmul=yes build=Release compiler=gcc-12.2.0; only the
            # last value may hold spaces (a clang version string).
            result["machine"] = dict(re.findall(
                r"(\w+)=(.*?)(?= \w+=|$)", line[len("machine "):]))
        elif line.startswith("unscaled "):
            probe = re.search(r"host probe median ([0-9.]+) ms", line)
            if probe:
                result["host_probe_ms"] = float(probe.group(1))
    return result


def quartiles(values):
    """(q1, median, q3), interpolating between the closest ranks."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(results, spec):
    """Statistics of the complete pairs, per metric in the result lines."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    pairs = [(p, c) for p, c in zip(results["parent"], results["change"])
             if p is not None and c is not None]
    summary = {"pairs": len(pairs), "metrics": {}, "runs": {}}
    names = [n for n in (pairs[0][1]["metrics"] if pairs else {})
             if n in metrics]
    for name in names:
        higher = metrics[name]["better"] == "higher"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        bound = metrics[name].get("bound")
        within = None
        if bound is not None and pmed:
            worse = (pmed - cmed) / pmed if higher else (cmed - pmed) / pmed
            within = worse <= bound
        summary["metrics"][name] = {
            "parent": {"median": pmed, "q1": pq1, "q3": pq3},
            "change": {"median": cmed, "q1": cq1, "q3": cq3},
            "ratio": cmed / pmed if pmed else None,
            "wins": sum((c > p) if higher else (c < p)
                        for p, c in zip(parent, change)),
            "gap_gt_iqr": abs(cmed - pmed) > pq3 - pq1,
            "within_bound": within,
        }
    for side in ("parent", "change"):
        done = [r for r in results[side] if r is not None]
        probes = [r["host_probe_ms"] for r in done if "host_probe_ms" in r]
        summary["runs"][side] = {
            "failed": sum(r["failed"] for r in done),
            "attempted": sum(r["attempted"] for r in done),
            "missing": len(results[side]) - len(done),
            "host_probe_ms": statistics.median(probes) if probes else None,
            "machine": done[0].get("machine") if done else None,
        }
    return summary


def report(workload, seeds, summary):
    """Prints the comparison table of one workload."""
    def spread(side):
        return f"{side['median']:.4g} [{side['q1']:.4g}-{side['q3']:.4g}]"

    print(f"\n{workload}: {summary['pairs']} complete pairs, seeds "
          f"{seeds[0]}-{seeds[-1]}")
    header = (f"{'metric':<34} {'parent median [q1-q3]':>28} "
              f"{'change median [q1-q3]':>28} {'ratio':>7} {'wins':>6} "
              f"{'gap>IQR':>7} {'bound':>6}")
    print(header)
    print("-" * len(header))
    for name, row in summary["metrics"].items():
        ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
        wins = f"{row['wins']}/{summary['pairs']}"
        gap = "yes" if row["gap_gt_iqr"] else "no"
        within = {None: "-", True: "ok", False: "WORSE"}[row["within_bound"]]
        print(f"{name:<34} {spread(row['parent']):>28} "
              f"{spread(row['change']):>28} {ratio:>7} {wins:>6} {gap:>7} "
              f"{within:>6}")
    for side, runs in summary["runs"].items():
        probe = runs["host_probe_ms"]
        print(f"{side}: {runs['failed']} of {runs['attempted']} runs failed"
              + (f", {runs['missing']} invocation(s) without a result line"
                 if runs["missing"] else "")
              + (f"; host probe median {probe:.3f} ms"
                 if probe is not None else ""))
    machine = summary["runs"]["change"]["machine"]
    if machine:
        print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))


def main():
    parser = argparse.ArgumentParser(
        description="Alternating parent/change runs of perfbench.")
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--workloads", nargs="+",
                        default=["table2,campaign,incast64"],
                        help="workload names, space- or comma-separated")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=101,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every result line and the "
                        "per-metric comparison here as JSON")
    args = parser.parse_args()

    roots = {"parent": os.path.abspath(args.parent_root),
             "change": os.path.abspath(args.change_root)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)

    saved = {}
    complete = True
    workloads = [w for arg in args.workloads for w in arg.split(",") if w]
    for workload in workloads:
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
        summary = summarize(results, spec)
        report(workload, seeds, summary)
        saved[workload] = {"seeds": seeds, "summary": summary, **results}

    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
