"""Tests of perf_ab.py's verdict rule: medians against BENCHMARK.json bounds,
in each metric's `better` direction, plus the correctness and failure-count
checks.

    python3 -m unittest tools/perf_ab_test.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from perf_ab import verdict  # noqa: E402

LOWER = {"name": "ttfb_p50_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "exec_per_s", "better": "higher", "bound": 0.25}
RSS = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}


def runs(values, correct=True, failed=0):
    """Three perfbench summaries whose metric `name` takes each value in
    turn for every metric listed in `values`."""
    return [{"correct": correct, "attempted": 10, "failed": failed,
             "metrics": {name: {"value": v[i], "unit": "-"}
                         for name, v in values.items()}}
            for i in range(3)]


def judge(metric, base, head, **head_kw):
    name = metric["name"]
    return verdict(runs({name: base}), runs({name: head}, **head_kw),
                   [metric])


class VerdictTest(unittest.TestCase):
    def test_lower_is_better_30_percent_worse_fails(self):
        rows, problems = judge(LOWER, [1.0, 1.0, 1.0], [1.3, 1.3, 1.3])
        self.assertFalse(rows[0][3])
        self.assertIn("ttfb_p50_s", problems[0])

    def test_lower_is_better_20_percent_worse_passes(self):
        rows, problems = judge(LOWER, [1.0, 1.0, 1.0], [1.2, 1.2, 1.2])
        self.assertTrue(rows[0][3])
        self.assertEqual(problems, [])

    def test_higher_is_better_30_percent_worse_fails(self):
        rows, problems = judge(HIGHER, [100, 100, 100], [70, 70, 70])
        self.assertFalse(rows[0][3])
        self.assertIn("exec_per_s", problems[0])

    def test_higher_is_better_20_percent_worse_passes(self):
        rows, problems = judge(HIGHER, [100, 100, 100], [80, 80, 80])
        self.assertTrue(rows[0][3])
        self.assertEqual(problems, [])

    def test_better_in_either_direction_passes(self):
        self.assertEqual(judge(LOWER, [1.0] * 3, [0.5] * 3)[1], [])
        self.assertEqual(judge(HIGHER, [100] * 3, [200] * 3)[1], [])

    def test_medians_not_means_are_compared(self):
        # One outlier run on head does not move its median.
        rows, problems = judge(LOWER, [1.0, 1.0, 1.0], [1.0, 1.05, 9.0])
        self.assertEqual(problems, [])
        self.assertEqual(rows[0][2], 1.05)

    def test_peak_rss_is_held_to_its_tighter_bound(self):
        self.assertEqual(judge(RSS, [10.0] * 3, [10.9] * 3)[1], [])
        rows, problems = judge(RSS, [10.0] * 3, [11.2] * 3)
        self.assertFalse(rows[0][3])
        self.assertIn("peak_rss_mb", problems[0])

    def test_incorrect_run_fails(self):
        _, problems = judge(LOWER, [1.0] * 3, [1.0] * 3, correct=False)
        self.assertEqual(problems, ["a head run is not correct"])

    def test_higher_failed_count_fails(self):
        _, problems = judge(LOWER, [1.0] * 3, [1.0] * 3, failed=1)
        self.assertEqual(problems, ["head failed 3 campaigns, base 0"])

    def test_run_that_exited_non_zero_fails(self):
        base = runs({"ttfb_p50_s": [1.0] * 3})
        head = base[:2] + [None]
        _, problems = verdict(base, head, [LOWER])
        self.assertEqual(problems, ["a head run exited non-zero"])


if __name__ == "__main__":
    unittest.main()
