"""Run a set of benchmark runs and print the run-to-run spread of each metric.

    python3 bench/series.py --runs 10 --seconds 20 --out bench/results/set-a

Run i uses seed --seed-base + i and runs the workloads in turn, in reverse
order on every other run, each in a fresh process.  Every result file goes
to --out; `compare.py` reads two such directories.  The spread printed for a
metric is the distance between the first and third quartile of its values
as a share of their median.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    if q2 == 0.0:  # a layer the workload never enters reads 0 in every run
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / q2


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for the result files")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    results: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        seed = args.seed_base + i
        for workload in order:
            out = os.path.join(args.out, f"{workload}-{seed}-{args.trace}.json")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            results[workload].append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"run {i} {workload} seed={seed} failed={result['failed']}/{result['attempted']} {values}",
                  flush=True)

    print(f"\n{'workload':14} {'metric':32} {'median':>14} {'spread':>8} {'bound':>6}")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            if len(values) < 2:
                continue
            bound = bounds.get(metric)
            print(f"{workload:14} {metric:32} {statistics.median(values):14.6g} {spread(values):8.4f} "
                  f"{'' if bound is None else f'{bound:6.2f}'}")
        print(f"{workload:14} {'failed share':32} {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
