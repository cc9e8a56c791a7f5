"""Unit tests of perfbench/run.py's BENCHMARK.json checks."""

import importlib.util
import json
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_run",
                                              PERFBENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


class MetricNameCheck(unittest.TestCase):
    def test_accepts_letters_digits_underscore_dot_dash(self):
        bench = {"end_to_end": [{"name": "p99_ms"}, {"name": "setup_s"}],
                 "per_layer": [{"name": "serving.submit_us.p50"},
                               {"name": "a-b_c.9"}]}
        self.assertEqual(run.bad_metric_names(bench), [])

    def test_rejects_every_other_character(self):
        for name in ("p99 ms", "cache/hits", "lat(ms)", "résumé",
                     "a:b", "", "x\n"):
            bench = {"end_to_end": [], "per_layer": [{"name": name}]}
            self.assertEqual(run.bad_metric_names(bench), [name], name)

    def test_rejects_non_string_names(self):
        self.assertEqual(run.bad_metric_names(
            {"end_to_end": [{"name": 7}]}), [7])

    def test_repository_benchmark_passes(self):
        bench_file = PERFBENCH.parent / "BENCHMARK.json"
        if not bench_file.exists():
            self.skipTest("no BENCHMARK.json beside perfbench/")
        bench = json.loads(bench_file.read_text())
        self.assertEqual(run.bad_metric_names(bench), [])
        for workload in bench["workloads"]:
            self.assertIn(workload["name"], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
