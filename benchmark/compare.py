#!/usr/bin/env python3
"""Compare two commits' rbdbench results, workload by workload.

    python3 benchmark/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ... [--claim METRIC:WORKLOAD ...]

Each file is a benchmark/out/results.json written by run.py on one
commit. Run the two commits alternately (parent, change, change,
parent, ...) with identical settings; the i-th untraced run of a
workload on one side pairs with the i-th on the other, in the order the
files are given.

For a claimed (metric, workload) the gain holds when there are at least
10 pairs, the change wins at least 9 in 10 of them (ties count for
neither side), and the two medians differ, in the better direction, by
more than the parent's interquartile range. Every other (metric,
workload) must not be worse than the parent's median by more than the
bound in BENCHMARK.json; where either side's spread (IQR over median)
exceeds that bound the result is "unresolved", unless every change run
beats every parent run. One row per workload. Exit status 1 when a
claim is not met or a metric regressed.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(paths):
    """The untraced runs of @paths, in file and run order."""
    runs = []
    for path in paths:
        with open(path) as f:
            runs += [r for r in json.load(f)["runs"] if not r["trace"]]
    return runs


def values(runs, workload, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4)
    return q1, q3


def better(a, b, lower):
    """True when value @a beats value @b."""
    return a < b if lower else a > b


def judge(parent, change, metric, claimed):
    """Verdict and detail for one (metric, workload)."""
    lower = metric["better"] == "lower"
    if not parent or not change:
        return "missing", "no runs"
    pmed, cmed = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    cq1, cq3 = quartiles(change)
    delta = (cmed - pmed) / pmed if pmed else 0.0
    detail = (f"{pmed:.6g} -> {cmed:.6g} {metric['unit']} "
              f"({100 * delta:+.1f}%)")
    if claimed:
        pairs = list(zip(parent, change))
        wins = sum(better(c, p, lower) for p, c in pairs)
        moved = better(cmed, pmed, lower) and abs(cmed - pmed) > pq3 - pq1
        detail += f", wins {wins}/{len(pairs)}"
        if len(pairs) < MIN_PAIRS:
            return "claim unresolved (fewer than 10 pairs)", detail
        if wins >= WIN_SHARE * len(pairs) and moved:
            return "claim met", detail
        return "CLAIM NOT MET", detail
    bound = metric["bound"]
    spread = max((pq3 - pq1) / pmed if pmed else 0.0,
                 (cq3 - cq1) / cmed if cmed else 0.0)
    if spread > bound:
        if all(better(c, p, lower) for p in parent for c in change):
            return "better in every run", detail
        return f"unresolved (spread {100 * spread:.1f}% > bound)", detail
    worse = delta if lower else -delta
    if worse > bound:
        return f"REGRESSION (bound {100 * bound:.0f}%)", detail
    return "within bound", detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--claim", action="append", default=[],
                    metavar="METRIC:WORKLOAD")
    args = ap.parse_args()
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    workloads = [w["name"] for w in spec["workloads"]]
    for metric, workload in claims:
        if workload not in workloads or metric not in [
                m["name"] for m in spec["end_to_end"]]:
            sys.exit(f"unknown claim {metric}:{workload}")

    parent, change = load_runs(args.parent), load_runs(args.change)
    failed = False
    for w in workloads:
        cells = []
        for m in spec["end_to_end"]:
            verdict, detail = judge(values(parent, w, m["name"]),
                                    values(change, w, m["name"]), m,
                                    (m["name"], w) in claims)
            failed |= verdict.startswith(("REGRESSION", "CLAIM NOT"))
            cells.append(f"{m['name']}: {verdict}, {detail}")
        print(f"{w}: " + "; ".join(cells))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
