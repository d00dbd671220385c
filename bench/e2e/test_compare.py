"""Unit tests for compare.py on synthetic result directories.

    python3 -m unittest test_compare      (from bench/e2e)
"""
import contextlib
import io
import json
import tempfile
import unittest
from pathlib import Path

import compare

SPEC = {
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
    ]
}

STEADY = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


def write_runs(directory, workload, latency, rate=None, mode="e2e", correct=True, tail=None,
               seconds=15, setup=None):
    for seed, lat in enumerate(latency, start=1):
        metrics = {"latency_ms": {"value": lat, "unit": "ms"}}
        if rate is not None:
            metrics["rate"] = {"value": rate[seed - 1], "unit": "1/s"}
        if setup is not None:
            metrics["setup_s"] = {"value": setup[seed - 1], "unit": "s"}
        doc = {"header": {"workload": workload, "seed": seed, "mode": mode,
                          "seconds": seconds, "threads": 4},
               "correct": correct, "attempted": 1, "failed": 0,
               "metrics": metrics if correct else {}}
        if tail is not None:
            doc["tail_metrics"] = {"tail_ms": {"value": tail[seed - 1], "unit": "ms"}}
        (Path(directory) / f"{workload}-s{seed}-{mode}.json").write_text(json.dumps(doc))


class CompareTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.parent = Path(self._tmp.name) / "parent"
        self.change = Path(self._tmp.name) / "change"
        self.parent.mkdir()
        self.change.mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def verdicts(self):
        p = compare.load_runs(self.parent)
        c = compare.load_runs(self.change)
        return {(w, n): s["verdict"] for _, w, n, s in compare.compare(p, c, SPEC)}

    def main_status(self):
        bench = Path(self._tmp.name) / "BENCHMARK.json"
        bench.write_text(json.dumps(SPEC))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            status = compare.main([str(self.parent), str(self.change), "--bench", str(bench)])
        return status, out.getvalue()

    def test_same_distribution_is_no_worse(self):
        write_runs(self.parent, "w", STEADY, rate=STEADY)
        write_runs(self.change, "w", list(reversed(STEADY)), rate=list(reversed(STEADY)))
        self.assertEqual(self.verdicts(), {("w", "latency_ms"): "no-worse", ("w", "rate"): "no-worse"})

    def test_slower_beyond_bound_regresses(self):
        write_runs(self.parent, "w", STEADY)
        write_runs(self.change, "w", [v * 1.3 for v in STEADY])
        self.assertEqual(self.verdicts()[("w", "latency_ms")], "regressed")

    def test_direction_follows_better(self):
        # A 30% higher rate is an improvement, a 30% lower one a regression.
        write_runs(self.parent, "up", STEADY, rate=STEADY)
        write_runs(self.change, "up", STEADY, rate=[v * 1.3 for v in STEADY])
        write_runs(self.parent, "down", STEADY, rate=STEADY)
        write_runs(self.change, "down", STEADY, rate=[v * 0.7 for v in STEADY])
        v = self.verdicts()
        self.assertEqual(v[("up", "rate")], "improved")
        self.assertEqual(v[("down", "rate")], "regressed")

    def test_consistent_win_beyond_spread_improves(self):
        write_runs(self.parent, "w", STEADY)
        write_runs(self.change, "w", [v * 0.95 for v in STEADY])
        self.assertEqual(self.verdicts()[("w", "latency_ms")], "improved")

    def test_fewer_than_ten_pairs_claim_no_gain(self):
        write_runs(self.parent, "w", STEADY[:5])
        write_runs(self.change, "w", [v * 0.95 for v in STEADY[:5]])
        self.assertEqual(self.verdicts()[("w", "latency_ms")], "no-worse")

    def test_small_mixed_difference_is_not_a_gain(self):
        # 0.5% faster on average but losing a third of the pairs.
        write_runs(self.parent, "w", STEADY)
        write_runs(self.change, "w", [v * (0.99 if i % 3 else 1.01) for i, v in enumerate(STEADY)])
        self.assertEqual(self.verdicts()[("w", "latency_ms")], "no-worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [6.0, 14.0, 8.0, 12.0, 7.0, 13.0, 9.0, 11.0, 10.0, 10.0]
        write_runs(self.parent, "w", noisy)
        write_runs(self.change, "w", list(reversed(noisy)))
        self.assertEqual(self.verdicts()[("w", "latency_ms")], "unresolved")

    def test_wide_spread_but_every_run_better_improves(self):
        noisy = [6.0, 14.0, 8.0, 12.0, 7.0, 13.0, 9.0, 11.0, 10.0, 10.0]
        write_runs(self.parent, "w", [v + 20.0 for v in noisy])
        write_runs(self.change, "w", noisy)
        self.assertEqual(self.verdicts()[("w", "latency_ms")], "improved")

    def test_failed_change_runs_fail_the_comparison(self):
        # One workload's change runs all fail the gate; the other is fine.
        write_runs(self.parent, "broken", STEADY)
        write_runs(self.change, "broken", STEADY, correct=False)
        write_runs(self.parent, "fine", STEADY)
        write_runs(self.change, "fine", STEADY)
        side = compare.load_runs(self.change)[("e2e", "broken")]
        self.assertEqual((side["runs"], len(side["failed"])), ({}, len(STEADY)))
        v = self.verdicts()
        self.assertEqual(v[("broken", "runs")], "failed")
        self.assertEqual(v[("fine", "latency_ms")], "no-worse")
        self.assertNotIn(("fine", "runs"), v)
        status, out = self.main_status()
        self.assertEqual(status, 1)
        self.assertIn("failed", out)

    def test_missing_change_runs_fail_the_comparison(self):
        # A run that crashed writes no file: the change lacks seeds, or the
        # whole workload, that the parent has.
        write_runs(self.parent, "partly", STEADY)
        write_runs(self.change, "partly", STEADY[:7])
        write_runs(self.parent, "gone", STEADY)
        v = self.verdicts()
        self.assertEqual(v[("partly", "runs")], "failed")
        self.assertEqual(v[("gone", "runs")], "failed")
        self.assertEqual(self.main_status()[0], 1)

    def test_parent_failures_excuse_as_many_change_failures(self):
        write_runs(self.parent, "w", STEADY, correct=False)
        write_runs(self.change, "w", STEADY, correct=False)
        self.assertNotIn(("w", "runs"), self.verdicts())

    def test_different_run_lengths_are_not_compared(self):
        write_runs(self.parent, "w", STEADY)
        write_runs(self.change, "w", STEADY, seconds=1)
        self.assertEqual(self.verdicts(), {("w", "runs"): "mismatched"})
        self.assertEqual(self.main_status()[0], 1)

    def test_setup_may_grow_by_its_absolute_floor(self):
        # Milliseconds of set-up growing by half stay within the 0.05 s
        # floor; growing by a tenth of a second does not.
        ms = [v * 1e-3 for v in STEADY]
        write_runs(self.parent, "small", STEADY, setup=ms)
        write_runs(self.change, "small", STEADY, setup=[v * 1.5 for v in ms])
        write_runs(self.parent, "large", STEADY, setup=ms)
        write_runs(self.change, "large", STEADY, setup=[v + 0.1 for v in ms])
        v = self.verdicts()
        self.assertEqual(v[("small", "setup_s")], "no-worse")
        self.assertEqual(v[("large", "setup_s")], "regressed")

    def test_per_layer_metrics_get_no_verdict(self):
        write_runs(self.parent, "w", STEADY, mode="trace")
        write_runs(self.change, "w", STEADY, mode="trace")
        self.assertEqual(self.verdicts(), {("w", "latency_ms"): "-"})

    def test_tail_metrics_are_compared_without_verdict(self):
        write_runs(self.parent, "w", STEADY, tail=STEADY)
        write_runs(self.change, "w", STEADY, tail=[v * 2 for v in STEADY])
        p = compare.load_runs(self.parent)
        c = compare.load_runs(self.change)
        rows = {n: s for _, _, n, s in compare.compare(p, c, SPEC)}
        self.assertEqual(rows["tail_ms"]["verdict"], "-")
        self.assertAlmostEqual(rows["tail_ms"]["delta"], 1.0)

    def test_main_exit_status_flags_regressions(self):
        write_runs(self.parent, "w", STEADY)
        write_runs(self.change, "w", [v * 1.3 for v in STEADY])
        status, out = self.main_status()
        self.assertEqual(status, 1)
        self.assertIn("regressed", out)
        write_runs(self.change, "w", STEADY)
        self.assertEqual(self.main_status()[0], 0)


if __name__ == "__main__":
    unittest.main()
