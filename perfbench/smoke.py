"""Smoke tests of the benchmark itself, on tiny sizes.

    python3 perfbench/smoke.py

They check that every metric named in BENCHMARK.json is printed with its
unit, that the oracle counts a corrupted report or a flipped rp3 verdict as
a failure, that timings are scaled by the slower calibration around them,
that two seeds draw different points with one composition, and that the
benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from oracle import KNOWN_RED, Oracle, load_reference, red_key, report_digest  # noqa: E402
from speed import REFERENCE_KERNEL_S, calibrate, scale_points  # noqa: E402
from workloads import (DEFAULT_SEED, NOMINAL_SECONDS, build_sample,  # noqa: E402
                       encode_point, point_key)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class MetricsTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run_bench("--workload", "rational", "--seed", "3", "--seconds", "0.5",
                             "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], proc.stdout)
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, expected)
            for name in expected:
                line = rf"(?m)^{re.escape(name)} +\S+ {re.escape(expected[name])}$"
                self.assertRegex(proc.stdout, line)

    def test_refuses_to_run_without_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_bench("--workload", "charsum", "--seed", "1", "--seconds", "1",
                             cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from dedsums.verify import default_grid

        cls.rp3 = default_grid("rp3")

    def verify(self, rid, params):
        from dedsums.verify import verify_identity

        return verify_identity(rid, params)

    def test_flipped_rp3_verdicts_fail(self):
        red = next(p for p in self.rp3 if red_key("rp3", p) in KNOWN_RED)
        plain = next(p for p in self.rp3 if red_key("rp3", p) not in KNOWN_RED)
        oracle = Oracle({}, require_reference=False)
        red_report, plain_report = self.verify("rp3", red), self.verify("rp3", plain)
        self.assertTrue(oracle.check("rp3", red, "k1", red_report))
        self.assertTrue(oracle.check("rp3", plain, "k2", plain_report))
        self.assertFalse(oracle.check("rp3", red, "k1",
                                      dataclasses.replace(red_report, verdict="exact-equal")))
        self.assertFalse(oracle.check("rp3", plain, "k2",
                                      dataclasses.replace(plain_report, verdict="mismatch")))
        self.assertEqual(len(oracle.failures), 2)

    def test_corrupted_report_fails_the_reference(self):
        rid, params = build_sample("rational", DEFAULT_SEED, NOMINAL_SECONDS)[0]
        key = point_key(encode_point(rid, params))
        reference = load_reference("rational")
        self.assertIn(key, reference)
        report = self.verify(rid, params)
        self.assertEqual(report_digest(report), reference[key])
        oracle = Oracle(reference, require_reference=True)
        self.assertTrue(oracle.check(rid, params, key, report))
        corrupted = dataclasses.replace(report, notes=report.notes + " ")
        self.assertFalse(oracle.check(rid, params, key, corrupted))
        self.assertFalse(oracle.check(rid, params, "unknown-point", report))

    def test_raised_point_fails(self):
        oracle = Oracle({}, require_reference=False)
        self.assertFalse(oracle.check("rp1", {}, "k", ValueError("boom")))


class SpeedTest(unittest.TestCase):
    def test_points_are_scaled_by_the_slower_neighbouring_calibration(self):
        ref = REFERENCE_KERNEL_S
        scaled = scale_points([0.010, 0.020], [ref, 2 * ref, ref])
        for got, want in zip(scaled, [0.005, 0.010]):
            self.assertAlmostEqual(got, want)
        self.assertGreater(calibrate(), 0)


class SamplingTest(unittest.TestCase):
    def test_seeds_differ_with_one_composition(self):
        for workload in ("charsum", "charsum-wide", "rational"):
            a = [encode_point(*p) for p in build_sample(workload, 1, 0.5)]
            b = [encode_point(*p) for p in build_sample(workload, 2, 0.5)]
            self.assertEqual(Counter(p[0] for p in a), Counter(p[0] for p in b))
            self.assertNotEqual(a, b)
            self.assertEqual(a, [encode_point(*p) for p in build_sample(workload, 1, 0.5)])

    def test_full_rp3_grid_holds_every_known_red_point(self):
        red = {red_key(rid, p) for rid, p in build_sample("charsum", 5, 0.1)} & KNOWN_RED
        self.assertEqual(red, KNOWN_RED)


if __name__ == "__main__":
    unittest.main()
