"""Two sets of benchmark runs and the spread of every end-to-end metric.

    python3 bench/steadiness.py

Reads BENCHMARK.json from the checkout root and runs its command ten
times on every workload with --trace 0, each time with another seed,
and then a second set with fresh seeds.  For each set and workload it
prints every end-to-end metric's median and its spread, the distance
between the first and third quartile as a share of the median, next to
the metric's bound.  Then it prints how far the second set's median
moved from the first's, in either direction, and the share of failed
operations in each.  It exits 1 unless every spread and every move is
within its metric's bound and the failed shares are equal.
Raw results go to bench/work/steadiness.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RESULTS = os.path.join(BENCH, "work", "steadiness.json")
SEEDS = 10


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    """(median, distance between the quartiles as a share of the median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    sets = []
    for index in range(2):
        results = {}
        for workload in workloads:
            seeds = range(1 + index * SEEDS, 1 + (index + 1) * SEEDS)
            results[workload] = [run_once(spec, workload, s) for s in seeds]
            os.makedirs(os.path.dirname(RESULTS), exist_ok=True)
            with open(RESULTS, "w", encoding="utf-8") as handle:
                json.dump(sets + [results], handle, indent=1)
        sets.append(results)

    ok = True
    for workload in workloads:
        print(f"{workload}")
        medians = []
        for index, results in enumerate(sets):
            runs = results[workload]
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"  set {index + 1}: {len(runs)} runs, {attempted} "
                  f"operations attempted, {failed} failed")
            row = {}
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                median, share = spread(values)
                row[m["name"]] = median
                within = share <= m["bound"]
                ok &= within
                print(f"    {m['name']:<12} median {median:10.4f} {m['unit']:<3}"
                      f" spread {share:6.1%} bound {m['bound']:.0%}"
                      f"{'' if within else ' OVER'}")
            medians.append((row, failed / attempted))
        (first, share1), (second, share2) = medians
        for m in metrics:
            shift = (second[m["name"]] - first[m["name"]]) / first[m["name"]]
            agree = abs(shift) <= m["bound"]
            ok &= agree
            print(f"    {m['name']:<12} second median moved {shift:+6.1%} "
                  f"(bound {m['bound']:.0%}){'' if agree else ' DISAGREE'}")
        ok &= share1 == share2
        print(f"    failed share {share1:.4f} vs {share2:.4f}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
