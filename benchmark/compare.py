#!/usr/bin/env python3
"""Compare two sets of benchmark results, one row per (workload, metric).

    python3 benchmark/compare.py BASE NEW [--per-layer]

BASE and NEW are result files written by benchmark/run.py (it saves one
per run under .bench_run/results/), or directories holding them; move
one set aside before measuring the other. Each end-to-end metric gets
the bound BENCHMARK.json fixes for it, and each row one verdict:

  better      NEW's median beats BASE's by more than the bound
  worse       NEW's median trails BASE's by more than the bound
  unchanged   the medians are within the bound of each other
  unresolved  a side's spread (quartile distance over median) exceeds
              the bound, so the medians cannot be told apart; a row
              where every NEW run beats every BASE run is still better

--per-layer adds the traced runs' per-layer medians, which have no
bound and get no verdict. Exits 1 when a row is worse or unresolved, or
a run reported incorrect outputs.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """(workload, trace) -> metric -> [values]; also the incorrect runs."""
    files = [path]
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path))
                 if f.endswith(".json")]
    runs, bad = {}, []
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        if not rec["result"]["correct"]:
            bad.append(f)
        key = (rec["workload"], rec["trace"])
        for name, m in rec["result"]["metrics"].items():
            runs.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return runs, bad


def spread(values):
    """Quartile distance over median (0 for fewer than two runs)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def verdict(base, new, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    b, n = statistics.median(base), statistics.median(new)
    worse_by = sign * (n - b) / abs(b) if b else 0.0
    if max(spread(base), spread(new)) > bound:
        if all(sign * x < sign * y for x in new for y in base):
            return worse_by, "better"
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < -bound:
        return worse_by, "better"
    return worse_by, "unchanged"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--per-layer", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, bad_base = load(args.base)
    new, bad_new = load(args.new)

    failed = False
    for f in bad_base + bad_new:
        print(f"incorrect outputs: {f}")
        failed = True
    head = (f"{'workload':<12} {'metric':<34} {'base':>12} {'new':>12} "
            f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    print(head)
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            b = base.get((w["name"], 0), {}).get(m["name"])
            n = new.get((w["name"], 0), {}).get(m["name"])
            if not b or not n:
                print(f"{w['name']:<12} {m['name']:<34} {'missing':>12}")
                failed = True
                continue
            worse_by, v = verdict(b, n, m["better"], m["bound"])
            failed |= v in ("worse", "unresolved")
            print(f"{w['name']:<12} {m['name']:<34} "
                  f"{statistics.median(b):>12.5g} {statistics.median(n):>12.5g} "
                  f"{100 * worse_by:>8.1f}% "
                  f"{100 * max(spread(b), spread(n)):>6.1f}% "
                  f"{100 * m['bound']:>5.0f}%  {v}")
    if args.per_layer:
        for w in bench["workloads"]:
            for m in bench["per_layer"]:
                b = base.get((w["name"], 1), {}).get(m["name"])
                n = new.get((w["name"], 1), {}).get(m["name"])
                if b and n:
                    print(f"{w['name']:<12} {m['name']:<34} "
                          f"{statistics.median(b):>12.5g} "
                          f"{statistics.median(n):>12.5g}  ({m['unit']})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
