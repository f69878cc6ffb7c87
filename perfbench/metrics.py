"""Metric arithmetic of the repository benchmark.

The harness (harness.cc) emits raw samples: one record per timed cell run
plus set-up timings and, on a traced run, the per-layer values. This
module turns them into the end-to-end metrics named in BENCHMARK.json.
Every ratio is a ratio of sums over the runs it names, never a mean of
per-run ratios, so long runs weigh by their length.
"""

import math
import statistics

# Fields of one run record emitted by the harness.
PASS, CELL, WALL_S, CPU_S, EVENTS, GOOD, TRACED = range(7)

FRONTENDS = ("rdf", "bigquery", "presto", "doc")

# The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def geomean(values):
    """Geometric mean of positive values (TPC-H power-metric style)."""
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail_rank(n, beyond=TAIL_BEYOND):
    """Index into an ascending sample of size n of the highest percentile
    that leaves at least `beyond` samples above it, and that percentile
    (share of samples at or below it, in percent). None when n is too
    small to leave that many."""
    if n < beyond + 1:
        return None
    index = n - beyond - 1
    return index, 100.0 * (index + 1) / n


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def throughput(runs):
    """Events per second: sum of events over sum of wall time."""
    wall = sum(r[WALL_S] for r in runs)
    return sum(r[EVENTS] for r in runs) / wall if wall > 0 else None


def cpu_ns_per_event(runs):
    """Thread-CPU nanoseconds per event: sum of CPU over sum of events."""
    events = sum(r[EVENTS] for r in runs)
    return 1e9 * sum(r[CPU_S] for r in runs) / events if events > 0 else None


def pass_geomeans_ms(runs, num_cells):
    """Per-pass geometric mean of cell wall times, in ms, over the passes
    in which every cell ran and checked out."""
    by_pass = {}
    for r in runs:
        by_pass.setdefault(r[PASS], []).append(r)
    out = []
    for p in sorted(by_pass):
        rs = by_pass[p]
        if len(rs) == num_cells and all(r[GOOD] for r in rs):
            out.append(geomean([1e3 * r[WALL_S] for r in rs]))
    return out


def end_to_end(raw):
    """All end-to-end metrics of one harness run, from its untraced timed
    runs. Returns (values, notes): values maps a metric name to a number
    and leaves out a metric that has no samples on this workload."""
    cells = raw["cells"]
    timed = [r for r in raw["runs"] if not r[TRACED]]
    good = [r for r in timed if r[GOOD]]
    values = {}
    notes = {}
    for fe in FRONTENDS:
        runs = [r for r in good if cells[r[CELL]]["frontend"] == fe]
        v = throughput(runs) if runs else None
        if v is not None:
            values["events_per_s." + fe] = v
    per_pass = pass_geomeans_ms(timed, len(cells))
    if per_pass:
        values["query_geomean_ms"] = statistics.median(per_pass)
        rank = tail_rank(len(per_pass))
        if rank is not None:
            index, pct = rank
            values["query_geomean_ms_tail"] = sorted(per_pass)[index]
            notes["query_geomean_ms_tail"] = "p%.1f of %d passes" % (
                pct, len(per_pass))
        else:
            notes["query_geomean_ms_tail"] = (
                "absent: %d passes leave no percentile with %d beyond it"
                % (len(per_pass), TAIL_BEYOND))
    v = cpu_ns_per_event(good)
    if v is not None:
        values["cpu_ns_per_event"] = v
    values["peak_rss_mb"] = raw["peak_rss_mb"]
    values["setup_s"] = raw["setup"]["setup_s"]
    values["error_rate"] = raw["failed"] / raw["attempted"]
    notes["passes"] = len(per_pass)
    return values, notes
