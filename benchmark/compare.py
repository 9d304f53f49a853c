#!/usr/bin/env python3
"""Compare saris_bench result sets (stdlib only).

Each set is a directory of result records, the files saris_bench writes with
`--json OUT` (benchmark/run.py writes one per run). Records are grouped by
(workload, trace) and paired across sets by seed.

    python3 benchmark/compare.py SET            # one set: its own spread
    python3 benchmark/compare.py PARENT CHANGE  # parent vs change

One set: per (workload, metric), the median, quartiles and spread (quartile
distance over median) against the metric's bound in BENCHMARK.json. Exit 1
if a spread exceeds its bound.

Two sets: per (workload, metric), each side's median and quartiles, the
change's median relative to the parent's (diff) and the change's win
fraction over the pairs (ties count for neither). Verdicts:
  gain        wins >= 0.9 and the medians differ, in the better direction,
              by more than the parent's quartile distance;
  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  a side's spread is wider than the bound, unless every change
              run is better than every parent run;
  ok          none of these.
Verdicts need at least 10 pairs. Exit 1 on any regression.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {}
    for m in bench["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in bench["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return metrics


def load_set(directory):
    """{(workload, trace): {seed: [metrics dict, ...]}}"""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        key = (rec["workload"], rec["trace"])
        values = {k: v["value"] for k, v in rec["metrics"].items()}
        runs.setdefault(key, {}).setdefault(rec["seed"], []).append(values)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def better(a, b, direction):
    """True when a reads better than b."""
    return a < b if direction == "lower" else a > b


def fmt(v):
    return f"{v:.6g}"


def one_set(runs, metrics):
    bad = 0
    print(f"{'workload':16} {'metric':26} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>8}")
    for (workload, trace), by_seed in sorted(runs.items()):
        recs = [r for rs in by_seed.values() for r in rs]
        for name in sorted(recs[0]):
            values = [r[name] for r in recs if name in r]
            q1, q2, q3 = quartiles(values)
            bound = metrics.get(name, (None, None))[1]
            s = spread(values)
            flag = ""
            if bound is not None and s > bound:
                flag, bad = "  SPREAD>BOUND", bad + 1
            print(f"{workload:16} {name:26} {len(values):3} {fmt(q2):>12} "
                  f"{fmt(q1):>12} {fmt(q3):>12} {s:8.4f} "
                  f"{'-' if bound is None else fmt(bound):>8}{flag}")
    return 1 if bad else 0


def two_sets(parent, change, metrics):
    regressions = 0
    print(f"{'workload':16} {'metric':26} {'pairs':>5} {'parent med':>12} "
          f"{'[q1, q3]':>25} {'change med':>12} {'[q1, q3]':>25} "
          f"{'diff':>8} {'wins':>5}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, _ = key
        pairs = []
        for seed in sorted(set(parent[key]) & set(change[key])):
            pairs += zip(parent[key][seed], change[key][seed])
        if not pairs:
            continue
        for name in sorted(pairs[0][0]):
            if name not in metrics:
                continue
            direction, bound = metrics[name]
            p = [a[name] for a, b in pairs if name in a and name in b]
            c = [b[name] for a, b in pairs if name in a and name in b]
            wins = sum(better(b, a, direction) for a, b in zip(p, c)) / len(p)
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            gain = wins >= 0.9 and better(cmed, pmed, direction) and \
                abs(cmed - pmed) > pq3 - pq1
            if len(p) < MIN_PAIRS:
                verdict = f"too few pairs (< {MIN_PAIRS})"
            elif bound is None:
                verdict = "gain" if gain else "-"
            elif max(spread(p), spread(c)) > bound and \
                    not all(better(b, a, direction) for a in p for b in c):
                verdict = "unresolved"
            elif gain:
                verdict = "gain"
            elif better(pmed * (1 + bound) if direction == "lower"
                        else pmed * (1 - bound), cmed, direction):
                verdict, regressions = "regression", regressions + 1
            else:
                verdict = "ok"
            diff = (cmed - pmed) / abs(pmed) if pmed else 0.0
            print(f"{workload:16} {name:26} {len(p):5} {fmt(pmed):>12} "
                  f"{'[' + fmt(pq1) + ', ' + fmt(pq3) + ']':>25} "
                  f"{fmt(cmed):>12} "
                  f"{'[' + fmt(cq1) + ', ' + fmt(cq3) + ']':>25} "
                  f"{diff:+8.4f} {wins:5.2f}  {verdict}")
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sets", nargs="+", metavar="SET",
                    help="one set (spread check) or PARENT CHANGE")
    args = ap.parse_args()
    if len(args.sets) > 2:
        ap.error("give one set or two")
    metrics = load_bench()
    sets = [load_set(d) for d in args.sets]
    if any(not s for s in sets):
        sys.exit("compare.py: a set holds no result records")
    if len(sets) == 1:
        return one_set(sets[0], metrics)
    return two_sets(sets[0], sets[1], metrics)


if __name__ == "__main__":
    sys.exit(main())
