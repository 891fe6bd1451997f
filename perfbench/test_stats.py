"""Tests for the benchmark's statistics code.

Run from the repository root: python3 -m unittest discover -s perfbench
"""

import unittest

import stats


class MedianTest(unittest.TestCase):
    def test_odd_count_takes_middle(self):
        self.assertEqual(stats.median([5, 1, 3]), 3.0)

    def test_even_count_averages_middle_two(self):
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_single_value(self):
        self.assertEqual(stats.median([7]), 7.0)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            stats.median([])


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertAlmostEqual(stats.percentile([0, 10], 25), 2.5)

    def test_ends(self):
        values = [3, 1, 2]
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile(values, 100), 3)

    def test_out_of_range_raises(self):
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)


class TailPercentileTest(unittest.TestCase):
    def test_hundred_samples_give_p90(self):
        # p90 of 1..100 lies between 90 and 91: ten samples beyond it.
        pct, value = stats.tail_percentile(list(range(1, 101)))
        self.assertEqual(pct, 90.0)
        self.assertAlmostEqual(value, 90.1)

    def test_thousand_samples_give_p99(self):
        pct, _ = stats.tail_percentile(list(range(1000)))
        self.assertEqual(pct, 99.0)

    def test_ninety_one_samples_have_no_tail(self):
        # p90 of 0..90 is 81: only nine samples lie beyond it.
        self.assertIsNone(stats.tail_percentile(list(range(91))))

    def test_too_few_samples_give_none(self):
        self.assertIsNone(stats.tail_percentile(list(range(12))))

    def test_ties_do_not_count_as_beyond(self):
        # Every sample equals every percentile: nothing lies beyond.
        self.assertIsNone(stats.tail_percentile([5.0] * 500))


class GeomeanTest(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1, 4, 16]), 4.0)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            stats.geomean([1, 0])

    def test_overhead_pct_matches_fig8_definition(self):
        # geomean(1.21, 1.0) - 1 = 10%.
        pct = stats.overhead_pct([(121, 100), (50, 50)])
        self.assertAlmostEqual(pct, 10.0)

    def test_overhead_pct_is_zero_for_identical_cycles(self):
        self.assertEqual(stats.overhead_pct([(7, 7), (9, 9)]), 0.0)


def outcome(cycles=100, beats=10, exceptions=0, entries=4, correct=True):
    return {"totalCycles": cycles, "dmaBeats": beats,
            "exceptions": exceptions, "peakTableEntries": entries,
            "correct": correct}


class FailureCountTest(unittest.TestCase):
    refs = {"a": (100, 10, 0, 4), "b": (200, 20, 0, 8)}

    def test_all_pass(self):
        attempted, failed, _ = stats.count_failures(
            [outcome(), outcome(200, 20, 0, 8)], ["a", "b"], self.refs)
        self.assertEqual((attempted, failed), (2, 0))

    def test_functional_failure_counts(self):
        _, failed, reasons = stats.count_failures(
            [outcome(correct=False)], ["a"], None)
        self.assertEqual(failed, 1)
        self.assertIn("functional", reasons[0])

    def test_capability_exception_counts(self):
        _, failed, _ = stats.count_failures(
            [outcome(exceptions=2)], ["a"], None)
        self.assertEqual(failed, 1)

    def test_reference_mismatch_counts_only_with_references(self):
        moved = [outcome(cycles=101)]
        self.assertEqual(stats.count_failures(moved, ["a"], self.refs)[1], 1)
        self.assertEqual(stats.count_failures(moved, ["a"], None)[1], 0)

    def test_point_missing_from_reference_fails(self):
        _, failed, _ = stats.count_failures([outcome()], ["c"], self.refs)
        self.assertEqual(failed, 1)

    def test_several_reasons_count_once(self):
        _, failed, _ = stats.count_failures(
            [outcome(cycles=1, exceptions=1, correct=False)], ["a"],
            self.refs)
        self.assertEqual(failed, 1)


def span(name, start, end):
    return {"name": name, "startNs": start, "endNs": end}


class LayerBooksTest(unittest.TestCase):
    root = span("point", 0, 1000)

    def test_books_close_with_residual(self):
        children = [span("mem.construct", 10, 110),
                    span("harness.execute", 120, 990)]
        layers, residual = stats.layer_books(
            self.root, children, {"sim": 500, "other": 300}, 800)
        self.assertEqual(layers,
                         {"mem.construct": 100, "sim": 500, "other": 300})
        # Root self: 1000 - 100 - 870 = 30; execute outside profile: 70.
        self.assertEqual(residual, 100)
        self.assertEqual(sum(layers.values()) + residual, 1000)

    def test_overlapping_children_rejected(self):
        children = [span("mem.construct", 10, 200),
                    span("harness.execute", 150, 900)]
        with self.assertRaises(ValueError):
            stats.layer_books(self.root, children, {"sim": 10}, 10)

    def test_child_outside_root_rejected(self):
        with self.assertRaises(ValueError):
            stats.layer_books(self.root, [span("mem.construct", 500, 1200)],
                              {}, 0)

    def test_profile_longer_than_span_rejected(self):
        with self.assertRaises(ValueError):
            stats.layer_books(self.root, [span("harness.execute", 0, 100)],
                              {"sim": 200}, 200)

    def test_domains_must_sum_to_profile_wall(self):
        with self.assertRaises(ValueError):
            stats.layer_books(self.root, [span("harness.execute", 0, 900)],
                              {"sim": 100}, 800)


if __name__ == "__main__":
    unittest.main()
