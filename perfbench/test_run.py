"""Tests of run.py: metric names, output shape and the output check.
Run from the repository root:

    python3 perfbench/test_run.py
"""

import json
import os
import re
import unittest

import run

ROOT = os.path.dirname(run.HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def rust_table(name):
    """Name -> unit of a metric table in src/probe.rs."""
    with open(os.path.join(run.HERE, "src", "probe.rs"), encoding="utf-8") as f:
        src = f.read()
    body = re.search(r"pub const %s: .*?= \[(.*?)\n\];" % name, src, re.S).group(1)
    return dict(re.findall(r'\("([^"]+)", "([^"]+)"\)', body))


def fake_measure(expected, digest="cycles=256 flits=10"):
    return {
        "attempted": 10,
        "failed": 0,
        "errors": [],
        "metrics": {n: {"value": 1.5, "unit": u} for n, u in expected.items()},
        "sim": {},
        "reference": {"key": "cycle=256", "digest": digest},
    }


class BenchmarkTests(unittest.TestCase):
    def setUp(self):
        self.bench = run.load_benchmark(os.path.join(ROOT, "BENCHMARK.json"))

    def test_metric_names_are_well_formed(self):
        for table in ("end_to_end", "per_layer"):
            for m in self.bench[table]:
                self.assertRegex(m["name"], NAME_RE)
                self.assertLessEqual(len(m["name"]), 64)

    def test_benchmark_json_matches_the_program_tables(self):
        self.assertEqual(run.expected_metrics(self.bench, 0), rust_table("END_TO_END"))
        self.assertEqual(run.expected_metrics(self.bench, 1), rust_table("PER_LAYER"))

    def test_required_metrics_are_listed(self):
        e2e = run.expected_metrics(self.bench, 0)
        for name in ("setup_s", "wall_s", "sim_flits_per_s", "sim_cycles_per_s", "peak_rss_mb"):
            self.assertIn(name, e2e)
        layer = run.expected_metrics(self.bench, 1)
        for name in (
            "scenarios.build_config_s", "routing.compute_s", "routing.flows",
            "compile.elaborate_s", "engine.build_s", "compile.route_csr_entries",
            "compile.route_direct", "rss.after_routing_mb", "rss.after_build_mb",
            "engine.step_us_per_cycle", "engine.chunk_ms_p50", "engine.chunk_ms_p95",
            "engine.flits_per_cycle", "phase.decide", "phase.commit", "phase.tg-tick",
            "phase.ni-inject", "phase.ledger", "phase.probe", "phase.fast-forward",
            "clock.skipped_ratio", "shard.sync_rounds_per_cycle", "phase.worker-compute",
            "phase.exchange", "phase.coordinator-wait", "phase.apply", "shard.imbalance",
            "shard.speedup_vs_compiled", "curves.points", "curves.bisect_points",
            "curves.point_s_p50", "curves.point_s_p80", "sweep.imbalance",
            "stats.extract_s", "trace.overhead_s",
        ):
            self.assertIn(name, layer)

    def test_a_complete_run_parses_and_carries_every_metric(self):
        for trace in (0, 1):
            expected = run.expected_metrics(self.bench, trace)
            measure = fake_measure(expected)
            result, errors = run.assemble(measure, dict(measure["reference"]), expected, trace)
            self.assertEqual(errors, [])
            self.assertTrue(result["correct"])
            line = json.loads(json.dumps(result))
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(set(line["metrics"]), set(expected))

    def test_a_missing_or_zero_metric_is_not_correct(self):
        expected = run.expected_metrics(self.bench, 0)
        measure = fake_measure(expected)
        del measure["metrics"]["wall_s"]
        measure["metrics"]["setup_s"]["value"] = 0
        result, errors = run.assemble(measure, dict(measure["reference"]), expected, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(len(errors), 2)

    def test_a_perturbed_digest_trips_the_output_check(self):
        expected = run.expected_metrics(self.bench, 0)
        measure = fake_measure(expected)
        perturbed = {"key": "cycle=256", "digest": "cycles=256 flits=11"}
        result, errors = run.assemble(measure, perturbed, expected, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("output check failed", errors[0])
        result, _ = run.assemble(measure, None, expected, 0)
        self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
