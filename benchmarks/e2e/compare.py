#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs, metric by workload.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

Each file is what ``run.py --out`` appends to.  Untraced runs are
grouped by (end-to-end metric, workload); each side's median and
quartiles are compared against the metric's ``bound`` and ``better``
direction from ``BENCHMARK.json``:

* ``unresolved`` -- either side's spread (quartile distance over median)
  exceeds the bound, unless every run of one side beats every run of the
  other (then ``better`` or ``worse``);
* ``worse`` / ``better`` -- the change's median moved by more than the
  bound, in the metric's bad / good direction;
* ``same`` -- otherwise.

Exits 1 when any pair is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path) -> dict:
    """``(metric, workload) -> [values]`` of the untraced runs in a file."""
    groups: dict = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run.get("trace"):
            continue
        for name, metric in run["metrics"].items():
            groups.setdefault((name, run["workload"]), []).append(
                float(metric["value"]))
    return groups


def summarize(values: list) -> tuple:
    """``(median, q1, q3)``; one value is its own quartiles."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(parent: list, change: list, bound: float, better: str) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for the change."""
    sign = 1.0 if better == "lower" else -1.0
    mp, p1, p3 = summarize(parent)
    mc, c1, c3 = summarize(change)
    spread = max((p3 - p1) / abs(mp) if mp else 0.0,
                 (c3 - c1) / abs(mc) if mc else 0.0)
    if spread > bound:
        # signed so that lower is better for every metric
        signed_parent = [sign * value for value in parent]
        signed_change = [sign * value for value in change]
        if max(signed_change) < min(signed_parent):
            return "better"
        if min(signed_change) > max(signed_parent):
            return "worse"
        return "unresolved"
    moved = sign * (mc - mp) / abs(mp) if mp else 0.0
    if moved > bound:
        return "worse"
    if moved < -bound:
        return "better"
    return "same"


def compare(parent: dict, change: dict, metrics: list) -> list:
    """One row per (metric, workload) present on both sides."""
    rows = []
    for metric in metrics:
        workloads = sorted({w for (m, w) in parent if m == metric["name"]}
                           & {w for (m, w) in change
                              if m == metric["name"]})
        for workload in workloads:
            a = parent[(metric["name"], workload)]
            b = change[(metric["name"], workload)]
            rows.append({
                "metric": metric["name"], "workload": workload,
                "unit": metric["unit"], "bound": metric["bound"],
                "parent": summarize(a), "change": summarize(b),
                "runs": (len(a), len(b)),
                "verdict": verdict(a, b, metric["bound"], metric["better"]),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="runs of the parent commit")
    parser.add_argument("change", help="runs of the change")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows = compare(load_runs(args.parent), load_runs(args.change), metrics)
    print(f"{'metric':<15} {'workload':<17} {'runs':>5} "
          f"{'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'change':>8} {'bound':>6}  verdict")
    for row in rows:
        (mp, p1, p3), (mc, c1, c3) = row["parent"], row["change"]
        moved = (mc - mp) / abs(mp) if mp else 0.0
        print(f"{row['metric']:<15} {row['workload']:<17} "
              f"{row['runs'][0]:>2}/{row['runs'][1]:<2} "
              f"{mp:>12.5g} [{p1:>9.5g}, {p3:>9.5g}] "
              f"{mc:>12.5g} [{c1:>9.5g}, {c3:>9.5g}] "
              f"{moved:>+8.1%} {row['bound']:>6.0%}  {row['verdict']}")
    if not rows:
        print("no (metric, workload) pair appears in both files",
              file=sys.stderr)
        return 1
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
