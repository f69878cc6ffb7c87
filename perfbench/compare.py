#!/usr/bin/env python3
"""Reads saved benchmark results (run.py --results DIR).

    python3 perfbench/compare.py compare PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py spread DIR

compare: one row per workload x end-to-end metric with each side's median
and quartiles, the change's win fraction over the pairs (the i-th parent
run against the i-th change run, in run order; ties count for neither)
and a verdict, then per-layer medians as supporting rows. Verdicts:
  improved    the change wins >= 9/10 of at least 10 pairs and the medians
              differ by more than the parent's own quartile distance;
  no worse    the change's median is not worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  worse       it is, and the parent's spread is within the bound;
  unresolved  the parent's spread (quartile distance / median) is wider
              than the bound, unless every change run beats every parent
              run (then no worse), or too few pairs to claim a gain.

spread: per workload and end-to-end metric, the quartile distance of the
runs in DIR as a share of their median, against the metric's bound.
"""

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec():
    with open(HERE.parent / "BENCHMARK.json") as f:
        return json.load(f)


def load_results(directory):
    """Saved results by (workload, trace), each list in run order."""
    out = {}
    for path in sorted(Path(directory).rglob("*.json")):
        with open(path) as f:
            r = json.load(f)
        key = (r["context"]["workload"], 1 if r["context"]["trace"] else 0)
        out.setdefault(key, []).append(r)
    for runs in out.values():
        runs.sort(key=lambda r: r["finished_unix"])
    return out


def values_of(runs, name):
    return [r["all_metrics"][name]["value"] for r in runs
            if name in r["all_metrics"]]


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a > b if direction == "higher" else a < b


def verdict(parent, change, direction, bound):
    """(win share, verdict) for two run lists of one metric."""
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    win_share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = metrics.quartiles(parent)
    _, cm, _ = metrics.quartiles(change)
    if (len(pairs) >= MIN_PAIRS and win_share >= WIN_SHARE
            and better(cm, pm, direction) and abs(cm - pm) > p3 - p1):
        return win_share, "improved"
    if all(better(c, p, direction) for c in change for p in parent):
        return win_share, "no worse"
    if pm != 0 and (p3 - p1) / abs(pm) > bound:
        return win_share, "unresolved"
    worse_by = (pm - cm if direction == "higher" else cm - pm) / abs(pm or 1)
    return win_share, "no worse" if worse_by <= bound else "worse"


def fmt(values):
    q1, q2, q3 = metrics.quartiles(values)
    return "%12.5g [%.5g, %.5g]" % (q2, q1, q3)


def compare(parent_dir, change_dir):
    spec = load_spec()
    parent, change = load_results(parent_dir), load_results(change_dir)
    print("%-8s %-24s %-30s %-30s %5s  %s"
          % ("workload", "metric", "parent median [q1, q3]",
             "change median [q1, q3]", "win", "verdict"))
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            p = values_of(parent.get((w, 0), []), m["name"])
            c = values_of(change.get((w, 0), []), m["name"])
            if not p or not c:
                continue
            win, v = verdict(p, c, m["better"], m["bound"])
            print("%-8s %-24s %-30s %-30s %5.2f  %s"
                  % (w, m["name"], fmt(p), fmt(c), win, v))
    print("\nper-layer (supporting; traced runs, medians)")
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["per_layer"]:
            p = values_of(parent.get((w, 1), []), m["name"])
            c = values_of(change.get((w, 1), []), m["name"])
            if not p or not c:
                continue
            pm, cm = metrics.quartiles(p)[1], metrics.quartiles(c)[1]
            delta = "%+.1f%%" % (100.0 * (cm - pm) / pm) if pm else "-"
            print("%-8s %-36s %12.5g -> %12.5g %-11s %s"
                  % (w, m["name"], pm, cm, m["unit"], delta))


def spread(directory):
    spec = load_spec()
    results = load_results(directory)
    steady = True
    for w in [w["name"] for w in spec["workloads"]]:
        runs = results.get((w, 0), [])
        if not runs:
            continue
        print("%s (%d runs)" % (w, len(runs)))
        for m in spec["end_to_end"]:
            vals = values_of(runs, m["name"])
            if len(vals) < 2:
                continue
            q1, q2, q3 = metrics.quartiles(vals)
            share = (q3 - q1) / q2 if q2 else 0.0
            mark = "ok" if share <= m["bound"] / 3 else (
                "within bound" if share <= m["bound"] else "TOO WIDE")
            if share > m["bound"]:
                steady = False
            print("  %-24s median %12.5g  spread %6.3f  bound %.2f  %s"
                  % (m["name"], q2, share, m["bound"], mark))
    return 0 if steady else 1


def main(argv):
    if len(argv) == 4 and argv[1] == "compare":
        compare(argv[2], argv[3])
        return 0
    if len(argv) == 3 and argv[1] == "spread":
        return spread(argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
