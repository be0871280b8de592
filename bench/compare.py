"""Compare two sets of benchmark results, parent against change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``run.py --out DIR``.  Make the
two sets with the same --seconds and the same seeds, alternating which side
runs first for each seed.  Runs are paired by workload and seed.

For every workload and end-to-end metric this prints each side's median and
quartiles, the share of pairs each side won, and a verdict against the
metric's bound in BENCHMARK.json:

  improved    the change won at least 9 of 10 pairs and the medians differ by
              more than the parent's quartile spread
  worse       the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's own spread is wider than the bound, and not every
              change run beats every parent run
  unchanged   otherwise

search_nodes_per_s has no bound of its own there and uses wall_s's.

Traced results (--trace 1) carry deterministic work counts.  Any count that
differs between the two sides for the same workload and seed is reported as
"algorithm changed"; for two runs of the same code it is an error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXTRA = {"name": "search_nodes_per_s", "unit": "1/s", "better": "higher"}


def load(directory: str) -> dict:
    """(workload, seed, trace) -> result."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            r = json.load(fh)
        out[(r["workload"], r["seed"], r["trace"])] = r
    return out


def value(result: dict, name: str):
    return result.get(name) if name == EXTRA["name"] else result["metrics"].get(name)


def summary(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list, change: list, pairs: list, better: str, bound: float) -> dict:
    """Verdict for one metric; pairs are (parent value, change value)."""
    sign = 1 if better == "lower" else -1
    beats = lambda a, b: sign * (a - b) < 0   # a is better than b
    p1, pm, p3 = summary(parent)
    c1, cm, c3 = summary(change)
    change_wins = sum(beats(c, p) for p, c in pairs)
    parent_wins = sum(beats(p, c) for p, c in pairs)
    worse_by = sign * (cm - pm) / pm
    spread = (p3 - p1) / pm
    all_better = all(beats(c, p) for c in change for p in parent)
    if (pairs and change_wins >= 0.9 * len(pairs) and beats(cm, pm)
            and abs(cm - pm) > p3 - p1):
        label = "improved"
    elif worse_by > bound:
        label = "worse"
    elif spread > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {"parent": [p1, pm, p3], "change": [c1, cm, c3],
            "change_won": change_wins / len(pairs) if pairs else None,
            "parent_won": parent_wins / len(pairs) if pairs else None,
            "worse_by": worse_by, "parent_spread": spread, "verdict": label}


def compare(parent: dict, change: dict, spec: dict) -> tuple:
    """-> (rows, algorithm changes)."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    metrics = list(spec["end_to_end"]) + [
        dict(EXTRA, bound=bounds["wall_s"]["bound"])]
    rows = []
    workloads = sorted({w for w, _s, t in set(parent) | set(change) if t == 0})
    for w in workloads:
        seeds = sorted({s for ww, s, t in set(parent) | set(change) if ww == w and t == 0})
        for m in metrics:
            pv, cv, pairs = [], [], []
            for s in seeds:
                a = parent.get((w, s, 0))
                b = change.get((w, s, 0))
                va = value(a, m["name"]) if a else None
                vb = value(b, m["name"]) if b else None
                if va is not None:
                    pv.append(va)
                if vb is not None:
                    cv.append(vb)
                if va is not None and vb is not None:
                    pairs.append((va, vb))
            if not pv or not cv:
                continue
            row = verdict(pv, cv, pairs, m["better"], m["bound"])
            row.update(workload=w, metric=m["name"], unit=m["unit"], runs=[len(pv), len(cv)])
            rows.append(row)
    changed = []
    for key in sorted(set(parent) & set(change)):
        if key[2] != 1:
            continue
        a, b = parent[key]["counts"], change[key]["counts"]
        moved = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        if moved:
            changed.append({"workload": key[0], "seed": key[1], "counts": moved})
    return rows, changed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--json", action="store_true", help="print the rows as JSON")
    args = ap.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows, changed = compare(load(args.parent), load(args.change), spec)
    if args.json:
        print(json.dumps({"rows": rows, "algorithm_changed": changed}, indent=1))
        return 0
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    print(f"{'workload':16s} {'metric':20s} {'parent q1/med/q3':28s} "
          f"{'change q1/med/q3':28s} {'won p/c':9s} verdict")
    for r in rows:
        won = ("-" if r["change_won"] is None
               else f"{r['parent_won']:.1f}/{r['change_won']:.1f}")
        print(f"{r['workload']:16s} {r['metric']:20s} {fmt(r['parent']):28s} "
              f"{fmt(r['change']):28s} {won:9s} {r['verdict']}"
              f" ({r['runs'][0]}+{r['runs'][1]} runs, {r['unit']})")
    for c in changed:
        print(f"algorithm changed: {c['workload']} seed {c['seed']}: "
              f"{', '.join(c['counts'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
