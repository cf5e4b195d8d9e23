"""The benchmark's own tests.

    python3 -m unittest discover -s tfbench -v

Tests in class Binary build tfbench_pass first (into $CARGO_TARGET_DIR or
.bench_build, like run.py).
"""
import json
import statistics
import time
import unittest

import run
import screen


def span(id_, parent, t0, t1, name="x", **attrs):
    return {"name": name, "id": id_, "parent": parent, "req": 1, "t0": t0,
            "t1": t1, "attrs": attrs}


class Statistics(unittest.TestCase):
    def test_median_and_quantile(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)
        xs = [5.0, 1.0, 9.0, 2.0, 7.0, 3.0]
        self.assertEqual(
            [run.quantile(xs, q) for q in (0.25, 0.5, 0.75)],
            statistics.quantiles(xs, n=4, method="inclusive"))
        with self.assertRaises(ValueError):
            run.quantile([], 0.5)

    def test_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(list(range(999)), 99))
        self.assertAlmostEqual(run.percentile(list(range(1001)), 99), 990.0)
        self.assertIsNone(run.percentile(list(range(9999)), 99.9))
        self.assertIsNotNone(run.percentile(list(range(10000)), 99.9))
        self.assertIsNone(run.percentile(list(range(19)), 50))
        self.assertEqual(run.percentile(list(range(21)), 50), 10)
        self.assertIsNone(run.percentile([], 50))

    def test_pass_wall_takes_per_request_medians(self):
        def p(*secs):
            return {"requests": [{"s": s} for s in secs]}
        # A burst slowed request 0 of one pass and request 1 of another.
        passes = [p(1.0, 2.0), p(5.0, 2.2), p(1.1, 9.0)]
        self.assertAlmostEqual(run.pass_wall(passes), 1.1 + 2.2)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),    # overlaps span 2: counted once
            span(4, 1, 90, 120),   # clipped to the parent's end
            span(5, 2, 12, 18),    # grandchild: span 2's, not span 1's
        ]
        selfs = run.self_times(spans)
        self.assertEqual(selfs[1], 100 - 30 - 10)
        self.assertEqual(selfs[2], 20 - 6)
        self.assertEqual(selfs[3], 20)
        self.assertEqual(selfs[5], 6)

    def test_self_time_of_parallel_children(self):
        # Four workers busy over the whole loop leave it no self time.
        spans = [span(1, 0, 0, 50)] + [
            span(2 + w, 1, 0, 50) for w in range(4)]
        self.assertEqual(run.self_times(spans)[1], 0)

    def test_layer_metrics_classifies_trials(self):
        ms = 1_000_000
        spans = [
            span(1, 0, 0, 100 * ms, "campaign", hit=0),
            span(2, 1, 0, 40 * ms, "golden", cycles=80000, warmup=60000,
                 warmup_repeat=0),
            span(3, 1, 40 * ms, 90 * ms, "campaign.loop", jobs=2,
                 window=10000),
            span(4, 3, 40 * ms, 41 * ms, "trial", fast=1, cycles=10000,
                 quarantined=0),
            span(5, 3, 40 * ms, 50 * ms, "trial", fast=0, cycles=2000,
                 quarantined=0),
            span(6, 3, 41 * ms, 90 * ms, "trial", fast=0, cycles=10000,
                 quarantined=1),
            span(7, 0, 100 * ms, 120 * ms, "golden", cycles=80000,
                 warmup=60000, warmup_repeat=1),
        ]
        m = run.layer_metrics(spans)
        self.assertEqual((m["trial.shortcut.n"], m["trial.early.n"],
                          m["trial.full_window.n"]), (1, 1, 1))
        self.assertAlmostEqual(m["trial.full_window.share"], 49 / 60)
        self.assertEqual(m["trial.sim_cycles"], 12000)
        self.assertAlmostEqual(m["trial.ns_per_cycle"], 59e6 / 12000)
        self.assertEqual(m["trial.quarantined"], 1)
        self.assertAlmostEqual(m["golden.warmup_repeat_ratio"], 0.5)
        self.assertAlmostEqual(m["campaign.worker_idle_s"], 2 * 0.05 - 0.06)
        self.assertAlmostEqual(m["campaign.self_s"], 0.01)
        self.assertEqual(m["soft.trials"], 0)
        self.assertEqual(set(m) | {"obs.events", "obs.events_dropped",
                                   "obs.jsonl_bytes", "trace.overhead_s"},
                         set(run.PER_LAYER))


class Contract(unittest.TestCase):
    def test_benchmark_json_names_what_run_py_prints(self):
        with open(run.ROOT / "BENCHMARK.json") as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))

    def test_seeds_map_to_distinct_offsets(self):
        bank = {f[0]: [int(x) for x in f[1:]] for f in run.table("bank.txt")}
        self.assertEqual(set(bank), set(screen.BANKED))
        for w in run.WORKLOADS:
            offsets = [run.campaign_offset(w, s) for s in range(screen.KEEP)]
            self.assertEqual(len(set(offsets)), screen.KEEP, w)
            self.assertEqual(run.campaign_offset(w, screen.KEEP),
                             run.campaign_offset(w, 0) if w in bank
                             else screen.KEEP, w)


class Binary(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        cls.work = run.build_dir() / "test"

    def digests(self, *args):
        res = run.run_pass(self.exe, list(args), self.work,
                           time.monotonic() + run.RUN_TIMEOUT_S)
        return {r["label"]: r["digest"]
                for r in res.get("requests", ())}, res

    def test_digests_are_stable_across_jobs_and_tracing(self):
        for w in ("trial-heavy", "figure-suite"):
            base = ["--workload", w, "--offset", "3", "--trials", "40"]
            one, _ = self.digests(*base, "--jobs", "1")
            four, _ = self.digests(*base, "--jobs", "4")
            traced, _ = self.digests(*base, "--jobs", "4", "--traced")
            self.assertEqual(one, four, w)
            self.assertEqual(one, traced, w)
            self.assertEqual(set(one), set(run.load_pins(w)), w)

    def test_soft_digests_survive_tracing(self):
        base = ["--workload", "soft-suite", "--offset", "3", "--trials", "2"]
        plain, _ = self.digests(*base)
        traced, res = self.digests(*base, "--traced")
        self.assertEqual(plain, traced)
        self.assertEqual(set(plain), set(run.load_pins("soft-suite")))
        self.assertEqual(run.layer_metrics(res["spans"])["soft.trials"], 24)


if __name__ == "__main__":
    unittest.main()
