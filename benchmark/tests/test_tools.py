"""Unit tests of the benchmark's Python tooling: quartiles and spread
(steady.py) and the shape and regression checks (compare.py).

    python3 -m unittest discover -s benchmark/tests -p 'test_*.py'
"""

import pathlib
import statistics
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
import compare  # noqa: E402
import steady  # noqa: E402


def saved(values, shape=None, name="sessions_per_s"):
    shape = shape or {"nproc": 4, "build_type": "Release",
                      "compiler": "GNU-12.2.0", "commit": "a"}
    return {"workload": "sessions", "shapes": [shape] * len(values),
            "runs": [{"metrics": {name: {"value": v, "unit": "1/s"}}}
                     for v in values]}


SPEC = {"end_to_end": [
    {"name": "sessions_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
    "per_layer": []}


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, median, q3 = steady.quartiles(values)
        self.assertEqual([q1, median, q3],
                         statistics.quantiles(values, n=4))
        self.assertAlmostEqual(steady.spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_constant_values_have_no_spread(self):
        self.assertEqual(steady.spread([2.0] * 10), 0.0)


class Summarize(unittest.TestCase):
    def test_verdicts_against_bound_and_its_third(self):
        bounds = steady.bounds(SPEC)
        steady_runs = saved([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        noisy_runs = saved([100, 130, 70, 110, 90, 125, 75, 100, 95, 105])
        ((*_, ok),) = steady.summarize(steady_runs["runs"], bounds)
        ((*_, over),) = steady.summarize(noisy_runs["runs"], bounds)
        self.assertEqual(ok, "ok")
        self.assertEqual(over, "OVER BOUND")

    def test_setup_spread_is_judged_like_any_other(self):
        runs = saved([1, 2, 3, 4, 5], name="setup_s")["runs"]
        ((*_, verdict),) = steady.summarize(runs, steady.bounds(SPEC))
        self.assertEqual(verdict, "OVER BOUND")


class Compare(unittest.TestCase):
    def test_direction_decides_what_is_worse(self):
        self.assertAlmostEqual(compare.worse_share(10, 8, "higher"), 0.2)
        self.assertAlmostEqual(compare.worse_share(10, 8, "lower"), -0.2)
        self.assertAlmostEqual(compare.worse_share(10, 12, "lower"), 0.2)

    def test_regression_beyond_bound_is_flagged(self):
        base = saved([100, 101, 99, 100, 100])
        new = saved([85, 86, 84, 85, 85])
        ((_, _, _, share, _, verdict),) = compare.compare(base, new, SPEC)
        self.assertAlmostEqual(share, 0.15)
        self.assertEqual(verdict, "WORSE")

    def test_noisy_base_is_unresolved(self):
        base = saved([100, 130, 70, 110, 90])
        new = saved([80, 85, 84, 85, 86])
        ((*_, verdict),) = compare.compare(base, new, SPEC)
        self.assertEqual(verdict, "unresolved")

    def test_shape_mismatch_is_flagged_but_commit_is_not(self):
        base = saved([100, 100])
        other_commit = saved([100, 100], {"nproc": 4, "build_type": "Release",
                                          "compiler": "GNU-12.2.0",
                                          "commit": "b"})
        other_cores = saved([100, 100], {"nproc": 16, "build_type": "Release",
                                         "compiler": "GNU-12.2.0",
                                         "commit": "a"})
        self.assertEqual(compare.shape_mismatches(base, other_commit), [])
        self.assertEqual(len(compare.shape_mismatches(base, other_cores)), 1)


if __name__ == "__main__":
    unittest.main()
