#!/usr/bin/env python3
"""Compare the end-to-end metrics of two BENCH_*.json files.

    python3 scripts/bench_compare.py BENCH_parent.json BENCH_change.json

Both files are written by ``scripts/bench_json.py``.  Only untraced runs
count.  For each workload, seed and end-to-end metric of BENCHMARK.json it
prints the parent's median with its quartiles, the change's median, the
relative change of the medians, and in how many pairs the change is better,
where the k-th run of the parent is paired with the k-th run of the change
(ties count for neither side).  The last column says whether a gain may be
claimed: the change is better in at least nine tenths of the pairs, and
its median is better than the parent's by more than the parent's
interquartile range.  On a metric whose parent runs never vary, such as
``surface_bytes``, a difference in the last digit already passes that
test, so read such a row by its relative change.  ``worse`` marks a median
worse than the parent's by more than the metric's bound in BENCHMARK.json.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _values(doc: dict) -> dict:
    """(workload, seed) -> metric -> values of the untraced runs, in run order."""
    out: dict = {}
    for run in doc["runs"]:
        if run["trace"] != 0:
            continue
        per = out.setdefault((run["workload"], run["seed"]), {})
        for name, m in run["result"]["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def _quartiles(v: list) -> tuple:
    if len(v) < 2:
        return v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, q3


def compare(parent: dict, change: dict, metrics: list) -> list[dict]:
    """One row per workload, seed and metric held by both documents.

    ``metrics`` are the ``end_to_end`` entries of BENCHMARK.json (name,
    better, bound).
    """
    a, b = _values(parent), _values(change)
    rows = []
    for key in sorted(set(a) & set(b)):
        for m in metrics:
            va, vb = a[key].get(m["name"]), b[key].get(m["name"])
            if not va or not vb:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            pairs = list(zip(va, vb))
            wins = sum(sign * (y - x) < 0 for x, y in pairs)
            med_a, med_b = statistics.median(va), statistics.median(vb)
            q1, q3 = _quartiles(va)
            rel = (med_b - med_a) / med_a if med_a else 0.0
            rows.append({
                "workload": key[0], "seed": key[1], "metric": m["name"],
                "parent": med_a, "q1": q1, "q3": q3, "change": med_b,
                "rel": rel, "wins": wins, "pairs": len(pairs),
                "gain": wins >= 0.9 * len(pairs) and sign * (med_a - med_b) > q3 - q1,
                "worse": sign * rel > m["bound"],
            })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    try:
        docs = [json.loads(p.read_text()) for p in (args.parent, args.change)]
    except (OSError, ValueError) as exc:
        print(f"bench_compare: {exc}", file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows = compare(*docs, metrics)
    if not rows:
        print("bench_compare: no workload and seed with untraced runs in both files",
              file=sys.stderr)
        return 2
    print(f"{args.parent.name} ({docs[0]['revision'][:8]}) -> "
          f"{args.change.name} ({docs[1]['revision'][:8]})")
    print(f"{'workload':<13}{'seed':>5}  {'metric':<14}{'parent median [q1, q3]':>36}"
          f"{'change':>13}{'rel':>9}{'wins':>8}  gain")
    for r in rows:
        spread = f"{r['parent']:.6g} [{r['q1']:.6g}, {r['q3']:.6g}]"
        print(f"{r['workload']:<13}{r['seed']:>5}  {r['metric']:<14}{spread:>36}"
              f"{r['change']:>13.6g}{100 * r['rel']:>+8.1f}%{r['wins']:>5}/{r['pairs']:<2}"
              f"  {'holds' if r['gain'] else 'no'}{'  worse' if r['worse'] else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
