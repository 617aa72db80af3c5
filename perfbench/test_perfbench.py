#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

The input-generator tests build perfbench/ first (as run.py does) and run the
vela_perfbench driver for a few seconds.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def fake_raw(workload, walls):
    window = {"wall_s": walls, "cpu_s": 2.0, "tokens": 1000, "steal_share": 0.0,
              "external_mb": 0.5, "modeled_s": 1.0, "paged_mb": 0.0,
              "requests": 70.0, "messages": 280.0, "total_mb": 0.6,
              "replans_evaluated": 0.0, "replans_adopted": 0.0}
    probes = {"profile_s": 0.2, "placement_s": 0.1, "local_fwd_ms": 200.0,
              "local_bwd_ms": 300.0, "expert_fwd_bwd_us": 400.0,
              "gate_us": 40.0, "roundtrip_us": 30.0,
              "socket_roundtrip_us": 60.0, "payload_bytes": 3000.0,
              "lp_ms": 20.0, "lp_iterations": 400.0}
    return {"workload": workload, "window": window, "traced": dict(window),
            "probes": probes, "setup_s": [1.0, 0.5, 0.7], "peak_rss_mb": 300.0,
            "attempted": len(walls) + 2, "failed": 0, "tokens_per_step": 372}


class TailRule(unittest.TestCase):
    def test_eleventh_largest_with_ten_beyond(self):
        value, pct, n = run.tail_percentile([float(i) for i in range(1, 41)])
        self.assertEqual((value, pct, n), (30.0, 75.0, 40))

    def test_percentile_rises_with_sample_count(self):
        value, pct, n = run.tail_percentile([float(i) for i in range(1, 201)])
        self.assertEqual((value, pct, n), (190.0, 95.0, 200))

    def test_order_of_samples_does_not_matter(self):
        samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0, 0.5]
        self.assertEqual(run.tail_percentile(samples)[0], 1.0)

    def test_needs_more_than_ten_samples(self):
        with self.assertRaises(ValueError):
            run.tail_percentile([1.0] * 10)

    def test_count_is_reported_with_the_metric(self):
        walls = [0.1 * (i % 7 + 1) for i in range(30)]
        metrics, info = run.end_to_end_metrics(fake_raw("vela_bulk", walls))
        self.assertEqual(info["tail_samples"], 30)
        self.assertAlmostEqual(info["tail_percentile"], 100.0 * 20 / 30)
        self.assertEqual(set(metrics), set(run.END_TO_END))


class Throughput(unittest.TestCase):
    def test_median_of_ten_step_blocks(self):
        walls = [0.1] * 10 + [0.4] * 10 + [0.2] * 10 + [0.3] * 5
        # Blocks of 1, 4 and 2 s; the 5-step remainder is dropped.
        self.assertAlmostEqual(run.block_throughput(walls, 100), 1000 / 2.0)

    def test_one_slow_block_does_not_move_it(self):
        calm = [0.2] * 40
        self.assertEqual(run.block_throughput(calm, 50),
                         run.block_throughput(calm[:30] + [2.0] * 10, 50))


class NamesMatchBenchmarkJson(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_workloads_are_runnable(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertTrue(set(names) <= set(run.WORKLOADS), names)

    def test_end_to_end_names_and_units(self):
        printed = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(printed, run.END_TO_END)

    def test_per_layer_names_and_units(self):
        printed = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(printed,
                         {n: spec[0] for n, spec in run.PER_LAYER.items()})

    def test_every_per_layer_metric_is_computed(self):
        values = run.per_layer_metrics(fake_raw("vela_bulk", [0.5] * 20))
        self.assertEqual(set(values), set(run.PER_LAYER))

    def test_ep_reports_no_placement_store_or_broker_activity(self):
        values = run.per_layer_metrics(fake_raw("ep_bulk", [0.25] * 20))
        for name in values:
            if name.split(".")[0] in ("placement", "store") or name in (
                    "core.profile_s", "core.placement_s",
                    "core.requests_per_step", "core.replans_evaluated",
                    "core.replans_adopted", "comm.messages_per_step"):
                self.assertEqual(values[name], 0.0, name)


class GeneratedInputs(unittest.TestCase):
    """The program sees only batches the seeded generator made."""

    @classmethod
    def setUpClass(cls):
        out_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        if not out_root.is_absolute():
            out_root = run.ROOT / out_root
        cls.build_dir = out_root / "perfbench"
        cls.binary = run.build(cls.build_dir)
        if cls.binary is None:
            raise RuntimeError("perfbench build failed")

    def driver(self, *args):
        env = {k: v for k, v in os.environ.items() if not k.startswith("VELA_")}
        proc = subprocess.run([str(self.binary), *args], env=env, check=True,
                              capture_output=True, text=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def digests(self, workload, seed, steps):
        return self.driver("--workload", workload, "--seed", str(seed),
                           "--digest-steps", str(steps))

    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            self.assertEqual(self.digests(workload, 5, 40),
                             self.digests(workload, 5, 40))

    def test_other_seed_other_inputs(self):
        for workload in run.WORKLOADS:
            a, b = self.digests(workload, 5, 40), self.digests(workload, 6, 40)
            self.assertNotEqual(a["fed_digest"], b["fed_digest"])
            self.assertNotEqual(a["profile_digest"], b["profile_digest"])

    def test_run_fed_exactly_the_generated_batches(self):
        work = self.build_dir / "work" / "test-digest"
        work.mkdir(parents=True, exist_ok=True)
        try:
            raw = self.driver("--workload", "vela_drift", "--seed", "9",
                              "--seconds", "0", "--trace", "0",
                              "--work-dir", str(work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        expected = self.digests("vela_drift", 9, raw["fed_steps"])
        self.assertEqual(raw["fed_digest"], expected["fed_digest"])
        self.assertEqual(raw["profile_digest"], expected["profile_digest"])
        self.assertEqual(raw["transport_check"], "identical")


if __name__ == "__main__":
    unittest.main()
