"""Self-tests of the benchmark's Python statistics (run.py --selftest)."""

import unittest

import stats


class QuantileTest(unittest.TestCase):
    def test_matches_interpolation_rule(self):
        self.assertEqual(stats.quantile([], 0.5), 0.0)
        self.assertEqual(stats.quantile([3, 1, 2], 0.5), 2.0)
        self.assertEqual(stats.quantile([1, 2, 3, 4], 0.5), 2.5)
        self.assertAlmostEqual(stats.quantile(list(range(1, 102)), 0.9), 91.0)


class PercentileRuleTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertIsNone(stats.supported_percentile(19))
        self.assertEqual(stats.supported_percentile(20), 50.0)
        self.assertEqual(stats.supported_percentile(39), 50.0)
        self.assertEqual(stats.supported_percentile(40), 75.0)
        self.assertEqual(stats.supported_percentile(99), 75.0)
        self.assertEqual(stats.supported_percentile(100), 90.0)
        self.assertEqual(stats.supported_percentile(199), 90.0)
        self.assertEqual(stats.supported_percentile(200), 95.0)
        self.assertEqual(stats.supported_percentile(1000), 99.0)
        self.assertEqual(stats.supported_percentile(10000), 99.9)


class FailFracTest(unittest.TestCase):
    def test_unreached_solves_and_unconverged_mutations(self):
        # converge: 17 solves reached epsilon, one stalled for the whole
        # round budget.
        self.assertAlmostEqual(stats.fail_frac(18, 1), 1 / 18)
        # churn: 4 of 1297 mutations did not re-converge.
        self.assertAlmostEqual(stats.fail_frac(1297, 4), 4 / 1297)
        self.assertEqual(stats.fail_frac(120, 0), 0.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.fail_frac(0, 0)
        with self.assertRaises(ValueError):
            stats.fail_frac(3, 4)

    def test_failed_operations_excluded_from_latency_but_not_time(self):
        raw = {"setup_s": [0.3, 0.1, 0.2], "peak_rss_mb": 10.0,
               "op_ms": [10.0, 20.0, 30.0], "busy_ms": 1060.0}
        metrics = stats.end_to_end(raw)
        self.assertEqual(metrics["setup_s"], 0.2)
        self.assertEqual(metrics["op_ms_p50"], 20.0)
        # Three useful operations in 1.06 s: the failed one's 1 s counts.
        self.assertAlmostEqual(metrics["ops_per_s"], 3 / 1.06)

    def test_converge_rate_is_over_solves_that_reached_epsilon(self):
        # The harness leaves the stalled solve's time out of busy_ms, so
        # halving every time to epsilon doubles ops_per_s.
        raw = {"setup_s": [0.02], "peak_rss_mb": 11.0,
               "op_ms": [100.0, 300.0], "busy_ms": 400.0}
        faster = dict(raw, op_ms=[50.0, 150.0], busy_ms=200.0)
        self.assertAlmostEqual(stats.end_to_end(raw)["ops_per_s"], 5.0)
        self.assertAlmostEqual(stats.end_to_end(faster)["ops_per_s"], 10.0)


if __name__ == "__main__":
    unittest.main()
