#!/usr/bin/env python3
"""The repository benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload scan|compute|warm --seed N \
        --seconds S --trace 0|1 [--results DIR]

Run from the repository root. The first run configures and builds the
harness (perfbench/CMakeLists.txt) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The harness generates the data set from
the seed, checks every histogram, and measures; this script turns its raw
samples into metrics, prints every metric with its unit, saves the result
with its run context under DIR (default <build>/results) for compare.py,
and prints the result object as the last stdout line. With --trace 0 the
object carries every end-to-end metric of BENCHMARK.json, with --trace 1
every per-layer metric. Exit status is 0 only when every run checked out.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

ROOT = HERE.parent
HARNESS_TIMEOUT_S = 170

# Reported next to the BENCHMARK.json metrics but not gated: the tail needs
# more passes than `compute` fits in a run, and errors are the result's
# `failed` count.
EXTRA_UNITS = {"query_geomean_ms_tail": "ms", "error_rate": "fraction"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("error: hepquery sources (src/) not found next to perfbench/")
        sys.exit(2)
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "--target",
                    "hepq_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return bdir / "hepq_perfbench"


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_harness(binary, args, out_dir):
    """Runs the harness; returns (exit code, raw document or None)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    raw = None
    if lines:
        try:
            raw = json.loads(lines[-1])
        except json.JSONDecodeError:
            raw = None
    return proc.returncode, raw


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["scan", "compute", "warm"])
    parser.add_argument("--seed", type=int, default=20120601)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results", default=None,
                        help="directory for the saved result (compare.py)")
    args = parser.parse_args(argv)

    binary = build()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    out_dir = build_dir() / "out"
    code, raw = run_harness(binary, args, out_dir)
    if raw is None:
        log("error: harness exited %d without a result" % code)
        return 1

    e2e, notes = metrics.end_to_end(raw)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    all_values = dict(e2e)
    all_values.update(raw["layers"])
    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in gated if m["name"] not in all_values]

    ctx = raw["context"]
    print("workload %s  seed %d  events %d  row groups %d  threads %d/%d nproc"
          "  build %s [%s]  chunk cache %.0f MB  passes %d"
          % (ctx["workload"], ctx["seed"], ctx["events"], ctx["row_groups"],
             ctx["threads"], ctx["nproc"], ctx["build_type"],
             ctx["build_flags"].strip(), ctx["chunk_cache_budget_mb"],
             notes["passes"]))
    print("end-to-end (untraced passes; latencies are this host's page cache,"
          " not a disk's):")
    for name, value in e2e.items():
        note = notes.get(name, "")
        print("  %-34s %16.6g %-10s %s" % (name, value, units[name], note))
    if "query_geomean_ms_tail" not in e2e:
        print("  %-34s %16s %-10s %s" % ("query_geomean_ms_tail", "-", "ms",
                                          notes["query_geomean_ms_tail"]))
    if raw["layers"]:
        print("per-layer (traced run; *_ns_per_event are thread-CPU sums):")
        for name, value in raw["layers"].items():
            print("  %-34s %16.6g %s" % (name, value, units.get(name, "")))
    for err in raw["errors"]:
        print("error: " + err)

    correct = raw["failed"] == 0 and code == 0 and not missing
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": all_values[m["name"]],
                                "unit": m["unit"]}
                    for m in gated if m["name"] in all_values},
    }
    results_dir = Path(args.results) if args.results else build_dir() / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    saved = dict(result, context=ctx, setup=raw["setup"], notes=notes,
                 all_metrics={k: {"value": v, "unit": units.get(k, "")}
                              for k, v in all_values.items()},
                 cells=raw["cells"], runs=raw["runs"],
                 finished_unix=time.time())
    stamp = "%s_t%d_s%d_%d" % (args.workload, args.trace, args.seed,
                               int(time.time() * 1000))
    with open(results_dir / (stamp + ".json"), "w") as f:
        json.dump(saved, f, indent=1)
    if missing:
        log("error: metrics missing from this run: " + ", ".join(missing))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
