"""Tests of the benchmark itself: metric arithmetic, the histogram check,
and the seed argument. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The harness tests build it first (see run.py) and use tiny data sets.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402


def record(pass_, cell, wall_s, events, cpu_s=0.0, good=True, traced=False):
    return [pass_, cell, wall_s, cpu_s, events, good, traced]


class ArithmeticTest(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(metrics.geomean([1.0, 100.0]), 10.0)
        self.assertAlmostEqual(metrics.geomean([2.0, 8.0, 4.0]), 4.0)
        with self.assertRaises(ValueError):
            metrics.geomean([1.0, 0.0])

    def test_tail_leaves_ten_samples_beyond(self):
        self.assertIsNone(metrics.tail_rank(10))
        self.assertEqual(metrics.tail_rank(11), (0, 100.0 / 11))
        index, pct = metrics.tail_rank(60)
        self.assertEqual(60 - 1 - index, 10)
        self.assertAlmostEqual(pct, 50 / 60 * 100)

    def test_ratios_are_ratios_of_sums(self):
        # 100 events in 1 s and 300 events in 1 s: 200/s, and likewise
        # 1000 events in 10 s plus 10 in 0.01 s is 1010/10.01, not the
        # mean of the per-run rates (550/s).
        runs = [record(0, 0, 1.0, 100), record(1, 0, 1.0, 300)]
        self.assertAlmostEqual(metrics.throughput(runs), 200.0)
        runs = [record(0, 0, 10.0, 1000, cpu_s=20.0),
                record(1, 0, 0.01, 10, cpu_s=0.02)]
        self.assertAlmostEqual(metrics.throughput(runs), 1010 / 10.01)
        self.assertAlmostEqual(metrics.cpu_ns_per_event(runs),
                               1e9 * 20.02 / 1010)

    def test_end_to_end_from_raw(self):
        cells = [{"name": "Q1/rdf", "frontend": "rdf", "query": 1},
                 {"name": "Q1/bigquery", "frontend": "bigquery", "query": 1}]
        runs = []
        for p in range(12):
            runs.append(record(p, 0, 0.004, 1000, cpu_s=0.008))
            runs.append(record(p, 1, 0.001 * (p + 1), 1000, cpu_s=0.002))
        # Traced runs never feed end-to-end numbers.
        runs.append(record(12, 0, 99.0, 1000, traced=True))
        raw = {"cells": cells, "runs": runs, "peak_rss_mb": 50.0,
               "setup": {"setup_s": 1.5}, "attempted": 26, "failed": 0}
        values, notes = metrics.end_to_end(raw)
        self.assertAlmostEqual(values["events_per_s.rdf"], 1000 / 0.004)
        self.assertNotIn("events_per_s.doc", values)  # no cells: absent
        per_pass = sorted(metrics.geomean([4.0, 1.0 * (p + 1)])
                          for p in range(12))
        self.assertAlmostEqual(values["query_geomean_ms"],
                               (per_pass[5] + per_pass[6]) / 2)
        self.assertAlmostEqual(values["query_geomean_ms_tail"], per_pass[1])
        self.assertEqual(notes["passes"], 12)
        self.assertEqual(values["error_rate"], 0.0)

    def test_failed_pass_is_left_out_of_the_geomean(self):
        cells = [{"name": "Q1/rdf", "frontend": "rdf", "query": 1}]
        runs = [record(0, 0, 0.002, 10), record(1, 0, 0.5, 10, good=False)]
        self.assertEqual(metrics.pass_geomeans_ms(runs, 1), [2.0])

    def test_verdicts(self):
        parent = [100.0 + i % 3 for i in range(10)]
        self.assertEqual(
            compare.verdict(parent, [x * 1.2 for x in parent], "higher", 0.1),
            (1.0, "improved"))
        self.assertEqual(
            compare.verdict(parent, [x * 0.99 for x in parent], "higher",
                            0.1)[1], "no worse")
        self.assertEqual(
            compare.verdict(parent, [x * 0.5 for x in parent], "higher",
                            0.1)[1], "worse")
        noisy = [50.0, 150.0] * 5
        self.assertEqual(compare.verdict(noisy, noisy, "lower", 0.1)[1],
                         "unresolved")


class HarnessTest(unittest.TestCase):
    """Runs the real harness on 2000-event data sets."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        run.build_dir().mkdir(parents=True, exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=run.build_dir()))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def harness(self, workload, seed, *extra):
        proc = subprocess.run(
            [str(self.binary), "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--events", "2000",
             "--out", str(self.tmp), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=120)
        return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])

    def test_clean_run_checks_out(self):
        code, raw = self.harness("scan", 1)
        self.assertEqual(code, 0)
        self.assertEqual(raw["failed"], 0)
        self.assertGreater(raw["attempted"], len(raw["cells"]))

    def test_warm_passes_are_served_by_the_cache(self):
        # The harness fails a `warm` pass that decodes from storage or
        # misses the chunk cache; a healthy tree passes that check.
        code, raw = self.harness("warm", 1, "--trace", "1")
        self.assertEqual(code, 0, raw["errors"])
        self.assertEqual(raw["failed"], 0)
        self.assertEqual(raw["layers"]["fileio.decoded_bytes_per_event"], 0.0)
        self.assertEqual(raw["layers"]["cache.chunk_hit_rate"], 1.0)

    def test_perturbed_histogram_is_an_error(self):
        code, raw = self.harness("scan", 1, "--inject-mismatch")
        self.assertNotEqual(code, 0)
        self.assertGreaterEqual(raw["failed"], 1)
        self.assertIn("differ from the reference", " ".join(raw["errors"]))
        values, _ = metrics.end_to_end(raw)
        self.assertGreater(values["error_rate"], 0.0)

    def test_seed_changes_the_dataset(self):
        _, a = self.harness("compute", 1)
        _, b = self.harness("compute", 2)
        _, a2 = self.harness("compute", 1)
        self.assertNotEqual(a["context"]["dataset_crc32"],
                            b["context"]["dataset_crc32"])
        self.assertEqual(a["context"]["dataset_crc32"],
                         a2["context"]["dataset_crc32"])


if __name__ == "__main__":
    unittest.main()
