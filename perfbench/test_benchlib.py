"""Self-test of the benchmark's own arithmetic.

    python3 perfbench/run.py --selftest
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def span(i, name, ts, dur, parent, op=0):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "args": {"id": i, "parent": parent, "op": op}}


def raw_sample(**over):
    raw = {
        "op_wall_s": [0.3, 0.1, 0.2], "model_wall_s": [0.4, 0.6, 0.5],
        "setup_s": [1.0, 3.0, 2.0], "sim_s": [0.06] * 3,
        "sim_p99_s": [0.06] * 3, "mpix_per_op": 2.0, "bpp": 5.5,
        "psnr_db": 50.0, "peak_rss_mb": 300.0, "attempted": 9, "failed": 0,
        "timed_user_s": 0.9, "timed_sys_s": 0.3, "timed_ctx_switches": 30,
        "dispatch_s": [3e-4, 1e-4, 2e-4],
        "layers": {"cell.copy.dma_commands": 1000,
                   "cellenc.t1.symbols": 2e6},
    }
    raw.update(over)
    return raw


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_percentile_is_nearest_rank(self):
        xs = list(range(1, 11))
        self.assertEqual(benchlib.percentile(xs, 50), 5)
        self.assertEqual(benchlib.percentile(xs, 90), 9)
        self.assertEqual(benchlib.percentile(xs, 91), 10)
        self.assertEqual(benchlib.percentile(xs, 100), 10)
        self.assertEqual(benchlib.percentile(list(range(1, 101)), 99), 99)
        with self.assertRaises(ValueError):
            benchlib.percentile(xs, 0)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(39))
        self.assertEqual(benchlib.tail_percentile(40), 75)
        self.assertEqual(benchlib.tail_percentile(99), 75)
        self.assertEqual(benchlib.tail_percentile(100), 90)
        self.assertEqual(benchlib.tail_percentile(200), 95)
        self.assertEqual(benchlib.tail_percentile(1000), 99)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)

    def test_spread_matches_statistics_quantiles(self):
        vals = [10, 11, 9, 12, 10.5, 9.5, 10.2, 11.1, 9.9, 10.1]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        self.assertAlmostEqual(benchlib.spread(vals),
                               (q3 - q1) / statistics.median(vals))
        self.assertEqual(benchlib.spread([2.0] * 10), 0.0)

    def test_throughput_is_work_over_summed_op_time(self):
        self.assertAlmostEqual(benchlib.throughput(2.0, [1.0, 1.0, 2.0]), 1.5)
        with self.assertRaises(ValueError):
            benchlib.throughput(2.0, [])

    def test_fail_ratio(self):
        self.assertEqual(benchlib.fail_ratio(10, 0), 0.0)
        self.assertAlmostEqual(benchlib.fail_ratio(10, 3), 0.3)
        for bad in ((0, 0), (3, 4), (3, -1)):
            with self.assertRaises(ValueError):
                benchlib.fail_ratio(*bad)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        kids = [(1, 3), (2, 4), (6, 7), (9, 12), (20, 30)]
        # Covered: [1,4) + [6,7) + [9,10) = 5 of 10.
        self.assertEqual(benchlib.covered((0, 10), kids), 5)
        self.assertEqual(benchlib.self_time((0, 10), kids), 5)
        self.assertEqual(benchlib.self_time((0, 10), []), 10)
        self.assertEqual(benchlib.self_time((0, 10), [(-5, 15)]), 0)

    def test_trace_layers_sums_per_op_then_takes_median(self):
        ev = [
            span(0, "op", 0, 100e3, -1, 0),
            span(1, "image.read", 0, 10e3, 0, 0),
            span(2, "cellenc.t1", 10e3, 60e3, 0, 0),
            span(3, "cellenc.t1", 70e3, 20e3, 0, 0),
            span(4, "op", 200e3, 200e3, -1, 1),
            span(5, "image.read", 200e3, 30e3, 4, 1),
            span(6, "cellenc.t1", 230e3, 100e3, 4, 1),
            span(7, "standalone", 500e3, 50e3, -1, 1),
            span(8, "cellenc.t1", 500e3, 40e3, 7, 1),
        ]
        layers, walls, selfs = benchlib.trace_layers(ev)
        self.assertAlmostEqual(layers["image.read.wall_s"], 0.02)
        # op 0: 80 ms of t1; op 1: 100 + 40 ms (both roots share op id 1).
        self.assertAlmostEqual(layers["cellenc.t1.wall_s"], 0.11)
        self.assertEqual(layers["jp2k.finish_tile.wall_s"], 0.0)
        self.assertEqual(walls, [0.1, 0.2])
        self.assertAlmostEqual(selfs[0], 0.01)
        self.assertAlmostEqual(selfs[1], 0.07)


class Results(unittest.TestCase):
    def test_end_to_end(self):
        m = benchlib.end_to_end(raw_sample())
        self.assertEqual(m["wall_s_p50"], 0.2)
        self.assertAlmostEqual(m["mpix_per_s"], 2.0 * 3 / 0.6)
        self.assertEqual(m["model_wall_s"], 0.5)
        self.assertEqual(m["setup_s"], 2.0)

    def test_result_counts_failures_and_determinism(self):
        res = benchlib.result(raw_sample(), [], trace=False)
        self.assertTrue(res["correct"])
        self.assertEqual((res["attempted"], res["failed"]), (10, 0))
        self.assertEqual(set(res["metrics"]),
                         {n for n, _, _, _ in benchlib.END_TO_END})
        res = benchlib.result(raw_sample(failed=2), [], trace=False)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 2)
        res = benchlib.result(raw_sample(sim_s=[0.06, 0.07, 0.06]), [],
                              trace=False)
        self.assertEqual((res["attempted"], res["failed"]), (10, 1))

    def test_per_layer_ratios(self):
        ev = [span(0, "op", 0, 300e3, -1), span(1, "cell.copy", 0, 100e3, 0),
              span(2, "cellenc.t1", 100e3, 100e3, 0)]
        res = benchlib.result(raw_sample(failed=1), ev, trace=True)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        self.assertEqual(set(m), {n for n, _, _, _ in benchlib.PER_LAYER})
        self.assertAlmostEqual(m["cell.copy.ns_per_dma"], 0.1 / 1000 * 1e9)
        self.assertAlmostEqual(m["cellenc.t1.ns_per_symbol"], 0.1 / 2e6 * 1e9)
        self.assertAlmostEqual(m["backend.native_speedup"], 0.5 / 0.2)
        self.assertAlmostEqual(m["trace.overhead_ratio"], 0.3 / 0.2)
        self.assertAlmostEqual(m["trace.self_s"], 0.1)
        self.assertAlmostEqual(m["proc.cpu_s_per_op"], 0.4)
        self.assertAlmostEqual(m["fail_ratio"], 0.1)
        self.assertEqual(m["cell.dispatch.wall_s"], 2e-4)


class Names(unittest.TestCase):
    def test_legality(self):
        self.assertTrue(benchlib.legal_name("sim.stage.mct.seconds"))
        self.assertFalse(benchlib.legal_name("sim.stage.levelshift+mct"))
        self.assertFalse(benchlib.legal_name(".hidden"))
        self.assertFalse(benchlib.legal_name("x" * 65))
        self.assertTrue(benchlib.legal_unit("Mpix/s"))
        self.assertFalse(benchlib.legal_unit("bits per pixel"))

    def test_metric_tables_are_legal_and_unique(self):
        names = [n for n, _, _, _ in benchlib.END_TO_END + benchlib.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit, better, _ in benchlib.END_TO_END + benchlib.PER_LAYER:
            self.assertTrue(benchlib.legal_name(name), name)
            self.assertTrue(benchlib.legal_unit(unit), unit)
            self.assertIn(better, ("lower", "higher"))

    def test_benchmark_json_matches_tables(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside the benchmark")
        with open(path) as fh:
            bj = json.load(fh)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bj["end_to_end"]],
            [(n, u, b) for n, u, b, _ in benchlib.END_TO_END])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bj["per_layer"]],
            [(n, u, b) for n, u, b, _ in benchlib.PER_LAYER])
        bounds = {m["name"]: m["bound"] for m in bj["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertEqual({w["name"] for w in bj["workloads"]},
                         {"lossless_ht", "lossy_ebcot", "service_mix"})


if __name__ == "__main__":
    unittest.main()
