"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 perfbench/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are files of run records (``run.py --out FILE``) or
directories of such files.  For every workload and metric the table
gives each side's median and quartiles, the ratio of the medians with
its base, and a verdict against the bound ``BENCHMARK.json`` fixes for
the metric:

* ``worse`` — NEW's median is worse than BASE's by more than the bound;
* ``better`` — every NEW run beats every BASE run, or NEW's median is
  better by more than BASE's own quartile spread and NEW wins at least
  nine tenths of all (BASE, NEW) pairs;
* ``unresolved`` — BASE's quartile spread is wider than the bound, so
  the runs cannot tell a change within the bound from noise;
* ``unchanged`` — none of these: within the bound, no resolved gain.

Per-layer metrics (traced runs) have no bound; they get the ratio only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

DEFAULT_BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path: Path) -> List[dict]:
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for file in files:
        with open(file) as f:
            records.extend(json.loads(line) for line in f if line.strip())
    return records


def collect(records: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` over the runs that were correct."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for rec in records:
        if not rec["result"]["correct"]:
            continue
        for name, m in rec["result"]["metrics"].items():
            values[(rec["workload"], name)].append(m["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (x - y) > 0: x is worse
    q1, med_b, q3 = quartiles(base)
    med_n = statistics.median(new)
    spread = (q3 - q1) / abs(med_b) if med_b else float("inf")
    worse_by = sign * (med_n - med_b) / abs(med_b) if med_b else 0.0
    if all(sign * (n - b) < 0 for n in new for b in base):
        return "better"
    if worse_by > bound:
        return "worse"
    if spread > bound:
        return "unresolved"
    wins = sum(1 for n in new for b in base if sign * (n - b) < 0)
    if -worse_by > spread and wins >= 0.9 * len(new) * len(base):
        return "better"
    return "unchanged"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--benchmark", type=Path, default=DEFAULT_BENCHMARK)
    args = p.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base = collect(load_records(args.base))
    new = collect(load_records(args.new))
    if not base or not new:
        print("error: no correct runs on one side", file=sys.stderr)
        return 2
    header = (
        f"{'workload':16} {'metric':34} {'n':>5} "
        f"{'base q1/median/q3':>32} {'new q1/median/q3':>32} {'new/base':>9}  verdict"
    )
    print(header)
    print("-" * len(header))
    worse = 0
    for workload, metric in sorted(set(base) & set(new)):
        b, n = base[(workload, metric)], new[(workload, metric)]
        bq, nq = quartiles(b), quartiles(n)
        ratio = nq[1] / bq[1] if bq[1] else float("nan")
        if metric in bounds:
            m = bounds[metric]
            v = verdict(b, n, m["better"], m["bound"])
            worse += v == "worse"
        else:
            v = "-"
        print(
            f"{workload:16} {metric:34} {len(b):>2}/{len(n):<2} "
            f"{bq[0]:>10.4g} {bq[1]:>10.4g} {bq[2]:>10.4g} "
            f"{nq[0]:>10.4g} {nq[1]:>10.4g} {nq[2]:>10.4g} "
            f"{ratio:>9.4f}  {v}"
        )
    print(f"\nratios are new median / base median (base = {args.base})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
