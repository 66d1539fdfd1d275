"""Compare two sets of benchmark results, one row per workload and end-to-end metric.

    python3 bench/compare.py bench/results/base bench/results/change

Each argument is a directory of result files written by run.py (series.py
writes such directories).  Only untraced runs are read.  A row shows each
set's median and quartiles, the ratio change/base, and a verdict:

* unresolved   either set's quartile spread is wider than the metric's bound,
               and not every change run beats every base run;
* worse        the change's median is worse than the base's by more than the bound;
* better       the change's median is better by more than the base's quartile
               distance and a change run beats a base run in at least 9 of
               10 of all (change, base) pairs;
* within bound otherwise.

Times are compared as run.py reports them, brought to machine speed 1.0 by
its calibration kernel.  The line under each workload shows each set's median
kernel time and its unscaled ops_per_s, so that a machine that got slower
between the sets is told apart from a slower program.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (x - y) > 0 means x is worse than y
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - b) < 0 for c in change for b in base) / (len(change) * len(base))
    if max((b3 - b1) / bm, (c3 - c1) / cm) > bound:
        return "better" if wins == 1.0 else "unresolved"
    if sign * (cm - bm) / bm > bound:
        return "worse"
    if wins >= 0.9 and -sign * (cm - bm) > b3 - b1:
        return "better"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    base, change = load(args.base), load(args.change)

    header = f"{'workload':14} {'metric':13} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32} {'ratio':>7}  verdict"
    print(header)
    print("-" * len(header))
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base or workload not in change:
            print(f"{workload:14} missing from {'base' if workload not in base else 'change'}")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in base[workload]]
            b = [r["metrics"][name]["value"] for r in change[workload]]
            qa, qb = quartiles(a), quartiles(b)
            cell_a = f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
            cell_b = f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
            print(f"{workload:14} {name:13} {cell_a:>32} {cell_b:>32} {qb[1] / qa[1]:7.3f}  "
                  f"{verdict(a, b, metric['better'], metric['bound'])}")
        for label, runs in (("base", base[workload]), ("change", change[workload])):
            shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
            kernel = statistics.median(r["calibration_kernel_ms"] for r in runs)
            unscaled = statistics.median(r["unscaled"]["ops_per_s"] for r in runs)
            print(f"{'':14} {label}: {len(runs)} runs, failed {', '.join(shares)}, calibration kernel "
                  f"{kernel:.3f} ms, unscaled ops_per_s {unscaled:.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
