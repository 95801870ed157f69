"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py PARENT.txt CHANGE.txt

A result set is the captured stdout of several ``run.py`` runs; only its
``{"record": ...}`` lines are read.  Run the two commits alternately (parent,
change, change, parent, ...) with the same settings: the i-th record of a
workload in one set is paired with the i-th record of that workload in the
other.

For each (workload, metric) the table gives each side's median and quartiles,
the share of pairs the change won (ties count for neither) and a verdict:

  improved    the change wins at least 9/10 of the pairs and its median is
              better by more than the parent's interquartile spread;
  worse       the same with the sides swapped, or the median is worse by more
              than the metric's bound in BENCHMARK.json;
  unresolved  the parent's spread is wider than the bound (or, for a metric
              without a bound, the medians differ by more than that spread);
  unchanged   otherwise.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def read_records(path) -> dict:
    """{(workload, metric): [value, ...]} in file order, and the metric units."""
    values = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if not line.startswith('{"record"'):
                continue
            rec = json.loads(line)["record"]
            for name, m in rec["metrics"].items():
                values[(rec["stamp"]["workload"], name)].append(m["value"])
    return values


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better: str, bound) -> tuple[str, float]:
    sign = -1 if better == "lower" else 1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    spread = p3 - p1
    if wins >= 0.9 * len(pairs) and gain > spread:
        result = "improved"
    elif losses >= 0.9 * len(pairs) and -gain > spread:
        result = "worse"
    elif bound is not None and -gain > bound * abs(pm):
        result = "worse"
    elif bound is not None and spread > bound * abs(pm):
        result = "unresolved"
    elif bound is None and abs(gain) > spread:
        result = "unresolved"
    else:
        result = "unchanged"
    return result, wins / len(pairs)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (read_records(p) for p in argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    rules = {m["name"]: (m["better"], m.get("bound"), m["unit"])
             for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'workload':14s} {'metric':38s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'pairs':>5s} {'won':>5s}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        if name not in rules:
            continue
        better, bound, unit = rules[name]
        p, c = parent[key], change[key]
        result, won = verdict(p, c, better, bound)
        pq, cq = quartiles(p), quartiles(c)
        print(f"{workload:14s} {name:38s} "
              f"{pq[1]:>11.5g} [{pq[0]:.5g}, {pq[2]:.5g}] "
              f"{cq[1]:>11.5g} [{cq[0]:.5g}, {cq[2]:.5g}] "
              f"{min(len(p), len(c)):>5d} {won:>5.0%}  {result} ({unit})")
        if min(len(p), len(c)) < MIN_PAIRS:
            print(f"  note: fewer than {MIN_PAIRS} pairs; a gain needs at least {MIN_PAIRS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
