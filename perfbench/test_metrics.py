"""Tests of the benchmark's own arithmetic (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import pathlib
import unittest

import metrics


class PercentileTest(unittest.TestCase):
    def test_rank_based_percentile(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 0.5), 50)
        self.assertEqual(metrics.percentile(values, 0.95), 95)
        self.assertEqual(metrics.percentile(list(reversed(values)), 0.95), 95)
        self.assertEqual(metrics.percentile([7.0], 0.95), 7.0)

    def test_samples_beyond_and_tail_rule(self):
        self.assertEqual(metrics.samples_beyond(100, 0.95), 5)
        self.assertEqual(metrics.samples_beyond(200, 0.95), 10)
        self.assertFalse(metrics.tail_supported(199, 0.95))
        self.assertTrue(metrics.tail_supported(200, 0.95))
        self.assertEqual(metrics.samples_beyond(0, 0.95), 0)

    def test_empty_samples_raise(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 0.5)
        with self.assertRaises(ValueError):
            metrics.median([])


def simulation_record(**overrides):
    record = {
        "kind": "simulation", "loop_seconds": 2.0, "op_ms": [500.0, 500.0, 500.0, 500.0],
        "rounds": 16, "rounds_per_call": 4, "imperfect_rounds": 0, "mismatched_calls": 0,
        "canonical": "{}", "reference_canonical": "{}", "setup_s": [0.1, 0.3, 0.2],
        "peak_rss_mb": 100.0,
    }
    record.update(overrides)
    return record


def serve_record(**overrides):
    record = {
        "kind": "serve", "loop_seconds": 2.0, "op_ms": [10.0] * 40, "done": 40,
        "rounds_per_job": 8, "submits": 40, "errors": 0, "sheds": 0,
        "transport_failures": 0, "artifact_mismatches": 0, "reference_mismatches": 0,
        "setup_s": [0.05], "peak_rss_mb": 20.0,
    }
    record.update(overrides)
    return record


class FailedFracTest(unittest.TestCase):
    def test_ratio_and_bounds(self):
        self.assertEqual(metrics.failed_frac(0, 10), 0.0)
        self.assertEqual(metrics.failed_frac(3, 12), 0.25)
        with self.assertRaises(ValueError):
            metrics.failed_frac(0, 0)
        with self.assertRaises(ValueError):
            metrics.failed_frac(11, 10)

    def test_simulation_counts_imperfect_rounds_over_rounds(self):
        record = simulation_record(imperfect_rounds=2)
        self.assertEqual(metrics.check_failures(record), (0, 4))
        self.assertEqual(metrics.failure_counts(record, 0), (2, 16))
        values = metrics.end_to_end(record, 0)
        self.assertEqual(values["failed_frac"][0], 2 / 16)
        self.assertEqual(values["failed_frac"][2], 16)

    def test_a_mismatched_call_fails_its_rounds(self):
        record = simulation_record(mismatched_calls=1, imperfect_rounds=1)
        self.assertEqual(metrics.check_failures(record), (1, 4))
        self.assertEqual(metrics.failure_counts(record, 1), (5, 16))

    def test_wrong_reference_fails_every_call(self):
        record = simulation_record(reference_canonical="{\"x\": 1}")
        self.assertEqual(metrics.check_failures(record), (4, 4))
        self.assertEqual(metrics.failure_counts(record, 4), (16, 16))

    def test_wrong_recorded_digest_fails_every_call(self):
        record = simulation_record()
        good = metrics.digest("{}")
        self.assertEqual(metrics.check_failures(record, good), (0, 4))
        self.assertEqual(metrics.check_failures(record, "0" * 64), (4, 4))

    def test_serve_counts_every_kind_of_failure(self):
        record = serve_record(errors=1, sheds=2, transport_failures=1, artifact_mismatches=1,
                              reference_mismatches=3)
        self.assertEqual(metrics.check_failures(record), (8, 40))
        self.assertEqual(metrics.end_to_end(record, 8)["failed_frac"][0], 8 / 40)


class EndToEndTest(unittest.TestCase):
    def test_simulation_rates(self):
        values = metrics.end_to_end(simulation_record(), 0)
        self.assertEqual(values["rounds_per_s"][:2], (8.0, "rounds/s"))
        self.assertEqual(values["jobs_per_s"][:2], (2.0, "jobs/s"))
        self.assertEqual(values["setup_s"][:2], (0.2, "s"))

    def test_serve_rounds_are_jobs_times_rounds_per_job(self):
        values = metrics.end_to_end(serve_record(), 0)
        self.assertEqual(values["jobs_per_s"][0], 20.0)
        self.assertEqual(values["rounds_per_s"][0], 160.0)


def span(name, start, end, parent=-1, request=0, items=1):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
            "request": request, "items": items}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(metrics.self_times([span("a", 0, 100)]), [100])

    def test_children_are_subtracted(self):
        spans = [span("job", 0, 100), span("submit", 10, 60, 0), span("get", 70, 90, 0)]
        self.assertEqual(metrics.self_times(spans), [30, 50, 20])

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [span("job", 0, 100), span("a", 10, 50, 0), span("b", 30, 70, 0),
                 span("c", 90, 130, 0)]
        # union inside the parent: [10, 70) + [90, 100) = 70
        self.assertEqual(metrics.self_times(spans)[0], 30)

    def test_grandchildren_belong_to_their_own_parent(self):
        spans = [span("root", 0, 100), span("mid", 0, 80, 0), span("leaf", 0, 60, 1)]
        self.assertEqual(metrics.self_times(spans), [20, 20, 60])

    def test_by_name_in_ms(self):
        spans = [span("a", 0, 2_000_000), span("a", 0, 4_000_000)]
        self.assertEqual(metrics.self_time_by_name(spans), {"a": [2.0, 4.0]})


class DerivedLayerMetricsTest(unittest.TestCase):
    def test_noise_is_hear_minus_superimpose(self):
        self.assertAlmostEqual(metrics.noise_ms(45.7, 3.4), 42.3)

    def test_overlap(self):
        self.assertAlmostEqual(metrics.overlap(20.0, 25.0, 37.5), 1.2)
        self.assertLess(metrics.overlap(200.0, 50.0, 300.0), 1.0)

    def test_queue_wait_subtracts_put_only_for_stored_submits(self):
        waits = metrics.queue_wait_samples([100.0, 100.0], [0, 1], sweep_ms=40.0, put_ms=5.0,
                                           ping_ms=1.0)
        self.assertEqual(waits, [59.0, 54.0])

    def test_trace_overhead(self):
        self.assertAlmostEqual(metrics.trace_overhead([110.0, 100.0, 110.0, 100.0],
                                                      [1, 0, 1, 0]), 0.1)

    def test_scaling_efficiency(self):
        # 4 threads, 2x faster than one thread: half of perfect scaling.
        self.assertEqual(metrics.scaling_efficiency([50.0], [100.0], 4), 0.5)

    def test_hit_rate(self):
        self.assertEqual(metrics.hit_rate(3, 1), 0.75)
        self.assertEqual(metrics.hit_rate(0, 0), 0.0)

    def test_per_layer_from_a_minimal_trace(self):
        spans = [
            span("graph.build", 0, 1_000_000), span("scenarios.workload_build", 0, 500_000),
            span("codebook.build", 0, 3_000_000), span("codebook.round", 0, 20_000_000),
            span("beep.superimpose", 0, 2_000_000), span("beep.hear", 0, 10_000_000),
            span("transport.decode", 0, 100_000_000, items=4),
            span("transport.round", 0, 150_000_000, items=4),
            span("sweep.run", 0, 40_000_000), span("store.put", 0, 5_000_000),
            span("store.get", 0, 100_000), span("serve.ping", 0, 1_000_000),
        ]
        record = simulation_record(
            spans=spans, threads=4, sim_ms=[160.0] * 4, op_traced=[1, 0, 1, 0],
            single_thread_op_ms=[1000.0], **{
                "codebook.round_builds": 2, "codebook.codeword_builds": 10,
                "codebook.payload_encodes": 12, "codebook.round_allocs": [7, 9],
                "transport.decode_allocs": [2.5], "transport.round_allocs": [8.0],
                "cache.hits": 3, "cache.builds": 1, "cache.disk_loads": 0,
                "serve_probe.op_ms": [100.0, 100.0], "serve_probe.op_stored": [0, 1],
                "serve_probe.server.completed": 2, "serve_probe.server.failed": 0,
                "serve_probe.server.shed_overloaded": 1,
                "serve_probe.server.shed_draining": 1, "serve_probe.server.retries": 0,
            })
        values = {name: value for name, (value, _, _) in metrics.per_layer(record).items()}
        self.assertEqual(set(values), set(metrics.LAYER_TARGETS))
        self.assertAlmostEqual(values["beep.noise_ms"], 8.0)
        self.assertAlmostEqual(values["transport.decode_ms"], 25.0)
        self.assertAlmostEqual(values["transport.round_ms"], 37.5)
        self.assertAlmostEqual(values["transport.overlap"], 45.0 / 37.5)
        self.assertAlmostEqual(values["transport.convert_ms"], 40.0 - 37.5)
        self.assertAlmostEqual(values["thread_pool.scaling_eff"], 0.5)
        self.assertEqual(values["codebook.codewords_per_round"], 5)
        self.assertEqual(values["codebook_cache.hit_rate"], 0.75)
        self.assertAlmostEqual(values["serve.queue_wait_ms"], (59.0 + 54.0) / 2)
        self.assertEqual(values["serve.shed"], 2)
        self.assertEqual(values["trace.overhead"], 0.0)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_names_the_metrics_this_code_reports(self):
        path = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json next to perfbench/")
        spec = json.loads(path.read_text())
        import run  # noqa: E402  (run.py is importable: its work is under main())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(metrics.LAYER_TARGETS))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
