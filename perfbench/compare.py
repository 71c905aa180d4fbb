#!/usr/bin/env python3
"""Compare two sets of perfbench runs, workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds one JSON object per line, as `run.py --append FILE`
writes them: the run's result object plus its "workload" and "seed".
Runs are paired in file order within each workload (run i of the base
with run i of the change), so record them alternating base and change.

Every metric gets the base's and the change's median, quartiles and run
count, the ratio change/base with the base value, the pairs the change
won, and a verdict by the choosing-metrics rule for a small sandbox:

  improved    the change wins at least 9/10 of the pairs (ties count
              for neither) and the medians differ, in its favour, by
              more than the base's own quartile spread
  worse       end-to-end metrics: the change's median is worse than
              the base's by more than the metric's bound; per-layer
              metrics (no bound): the change loses 9/10 of the pairs
              and the medians differ by more than the base's spread
  unresolved  the base's spread is wider than the bound (per-layer:
              the median moved by more than the spread without a 9/10
              majority), unless every change run beats every base run
  no worse    otherwise

Metric directions and bounds come from BENCHMARK.json.  Exit status is
1 when any metric is worse, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path):
    """{workload: [metrics dict, ...]} in file order."""
    runs = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            runs.setdefault(record["workload"], []).append(
                {name: entry["value"]
                 for name, entry in record["metrics"].items()})
        except (ValueError, KeyError, TypeError) as error:
            sys.exit(f"{path}:{number}: not a perfbench result line "
                     f"({error})")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(base, change, lower_better, bound):
    """Classify one metric; returns (verdict, wins, pairs)."""
    sign = 1.0 if lower_better else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) > 0)
    b_q1, b_med, b_q3 = quartiles(base)
    c_med = statistics.median(change)
    spread = b_q3 - b_q1
    gain = sign * (b_med - c_med)  # > 0: the change is better
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return "improved", wins, len(pairs)
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if bound is not None:
        if -gain > bound * abs(b_med):
            return "worse", wins, len(pairs)
        if spread > bound * abs(b_med) and not all_better:
            return "unresolved", wins, len(pairs)
        return "no worse", wins, len(pairs)
    if pairs and losses >= 0.9 * len(pairs) and -gain > spread:
        return "worse", wins, len(pairs)
    if -gain <= spread or all_better:
        return "no worse", wins, len(pairs)
    return "unresolved", wins, len(pairs)


def compare(base_runs, change_runs, spec):
    """Rows of (workload, metric, unit, base, change, ratio, wins,
    pairs, verdict) for every metric both sides report."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for workload in sorted(set(base_runs) & set(change_runs)):
        base, change = base_runs[workload], change_runs[workload]
        names = [n for n in metrics
                 if all(n in run for run in base + change)]
        for name in names:
            b = [run[name] for run in base]
            c = [run[name] for run in change]
            meta = metrics[name]
            result, wins, pairs = verdict(
                b, c, meta["better"] == "lower", meta.get("bound"))
            b_med = statistics.median(b)
            ratio = statistics.median(c) / b_med if b_med else None
            rows.append((workload, name, meta["unit"], quartiles(b),
                         len(b), quartiles(c), len(c), ratio, wins, pairs,
                         result))
    return rows


def fmt(stats, count):
    q1, med, q3 = stats
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={count}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()
    spec = json.loads(SPEC.read_text())
    rows = compare(load_runs(args.base), load_runs(args.change), spec)
    if not rows:
        sys.exit("no workload and metric common to both files")
    print("workload | metric | base median [q1, q3] | change median "
          "[q1, q3] | ratio (base) | wins | verdict")
    for (workload, name, unit, b, nb, c, nc, ratio, wins, pairs,
         result) in rows:
        ratio_text = (f"{ratio:.4f} of {b[1]:.4g} {unit}"
                      if ratio is not None else f"n/a (base 0 {unit})")
        print(f"{workload} | {name} | {fmt(b, nb)} | {fmt(c, nc)} | "
              f"{ratio_text} | {wins}/{pairs} | {result}")
    sys.exit(1 if any(row[-1] == "worse" for row in rows) else 0)


if __name__ == "__main__":
    main()
