"""Tests of campaign generation and metric arithmetic.

    cd perfbench && python3 -m unittest test_workloads
"""

import json
import math
import os
import unittest

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class SeedDerivation(unittest.TestCase):
    def test_splitmix64_matches_reference_vector(self):
        # First outputs of SplitMix64 seeded with 0 (Vigna's reference).
        out, state = workloads.splitmix64(0)
        self.assertEqual(out, 0xE220A8397B1DCDAF)
        out, _ = workloads.splitmix64(state)
        self.assertEqual(out, 0x6E789E6AA1B965F4)

    def test_seeds_are_hashed_not_consecutive(self):
        seeds = [workloads.campaign_seed(1, i) for i in range(1000)]
        self.assertEqual(len(set(seeds)), len(seeds))
        gaps = {abs(b - a) for a, b in zip(seeds, seeds[1:])}
        self.assertGreater(min(gaps), workloads.PAPER_BUDGET)

    def test_same_seed_same_campaigns(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.generate(w, 42, 20),
                             workloads.generate(w, 42, 20))
            self.assertNotEqual(workloads.generate(w, 42, 20),
                                workloads.generate(w, 43, 20))

    def test_generated_seed_ranges_never_overlap(self):
        for w in workloads.WORKLOADS:
            for seed in (0, 1, 2, 3, 2**63, 2**64 - 1):
                workloads.check_disjoint_seed_ranges(
                    workloads.generate(w, seed, 20))

    def test_overlap_is_detected(self):
        consecutive = [{"id": i, "seed": 1 + i, "iterations": 100_000}
                       for i in range(3)]
        with self.assertRaises(ValueError):
            workloads.check_disjoint_seed_ranges(consecutive)
        wrapping = [{"id": 0, "seed": 2**64 - 5, "iterations": 10}]
        with self.assertRaises(ValueError):
            workloads.check_disjoint_seed_ranges(wrapping)


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(workloads.percentile(values, 0.90), 90)
        with self.assertRaises(ValueError):
            workloads.percentile(values[:99], 0.90)

    def test_median_is_nearest_rank(self):
        self.assertEqual(workloads.percentile(list(range(1, 101)), 0.5), 50)
        self.assertEqual(workloads.percentile(list(range(1, 22)), 0.5), 11)

    def test_missed_bugs_sort_past_every_limit(self):
        values = [1.0] * 89 + [math.inf] * 11
        self.assertEqual(workloads.percentile(values, 0.90), math.inf)
        self.assertEqual(workloads.percentile(values, 0.50), 1.0)

    def test_every_workload_supports_its_p90(self):
        for w in workloads.WORKLOADS:
            for seconds in (1, 10, 20):
                n = len(workloads.generate(w, 1, seconds))
                workloads.percentile(list(range(n)), 0.90)


class Verdicts(unittest.TestCase):
    def result(self, **fields):
        r = {"expect_bug": True, "bug_found": True, "replay_ok": True}
        r.update(fields)
        return r

    def test_wrong_verdicts(self):
        self.assertIsNone(workloads.wrong_verdict(self.result()))
        self.assertEqual(workloads.wrong_verdict(self.result(bug_found=False)),
                         "missed bug")
        self.assertEqual(
            workloads.wrong_verdict(self.result(expect_bug=False)),
            "bug reported on a fixed control")
        self.assertEqual(workloads.wrong_verdict(self.result(replay_ok=False)),
                         "witness did not reproduce on replay")


class Evaluate(unittest.TestCase):
    def run_of(self, found):
        results = []
        for i in range(100):
            results.append({
                "id": i, "expect_bug": True, "bug_found": i < found,
                "replay_ok": True, "repeated": True, "wall_s": 0.01,
                "cpu_s": [0.01, 0.03, 0.009], "explore_s": 0.01,
                "explore_cpu_s": [0.012, 0.01, 0.008], "executions": 10,
                "steps": 100, "states": 0, "saturated": False,
                "setup_s": [0.003, 0.001, 0.001],
                "replay_s": [0.004, 0.002, 0.001],
                "witness_states": 5, "witness_states_s": [0.001] * 3,
                "chase_ns": [workloads.REFERENCE_CHASE_NS] * 3})
        summary = {"peak_rss_kb": 2048, "wall_s": 9.0}
        return workloads.evaluate(results, summary, 0,
                                  [i % 4 for i in range(100)])

    def test_clean_run(self):
        correct, failed, metrics = self.run_of(found=100)
        self.assertTrue(correct)
        self.assertEqual(failed, 0)
        # Every timing is a campaign's median over its passes.
        self.assertAlmostEqual(metrics["exec_per_s"], 1000.0)
        self.assertAlmostEqual(metrics["ttfb_p50_s"], 0.01)
        self.assertAlmostEqual(metrics["setup_s"], 0.1)
        self.assertAlmostEqual(metrics["replay_s"], 0.2)
        self.assertEqual(set(metrics), set(workloads.END_TO_END_UNITS))

    def test_each_pass_is_scaled_to_the_reference_host_speed(self):
        # The second pass ran on a host twice as slow as the reference, and
        # took twice as long: scaled, it reads the same as the others.
        ref = workloads.REFERENCE_CHASE_NS
        r = {"cpu_s": [0.02, 0.05, 0.03], "chase_ns": [ref, 2 * ref, ref]}
        self.assertAlmostEqual(workloads.median_of_passes(r)["cpu_s"], 0.025)
        self.assertAlmostEqual(
            workloads.median_of_passes(r, at_host_speed=False)["cpu_s"], 0.03)

    def test_a_pass_that_does_not_repeat_is_wrong_output(self):
        results = [{"expect_bug": True, "bug_found": True, "replay_ok": True,
                    "repeated": False}]
        self.assertEqual(workloads.wrong_verdict(results[0]),
                         "a pass did not repeat the campaign's counts")

    def test_misses_are_counted_and_tail_past_every_limit_fails(self):
        correct, failed, metrics = self.run_of(found=95)
        self.assertTrue(correct)
        self.assertEqual(failed, 5)
        correct, failed, metrics = self.run_of(found=80)
        self.assertFalse(correct)
        self.assertEqual(failed, 20)
        self.assertEqual(metrics["ttfb_p90_s"], 9.0)


class RowRates(unittest.TestCase):
    def test_rate_does_not_move_with_the_mix(self):
        # Row 0 runs 1,000 executions/s, row 1 runs 4,000; the second mix
        # spends ten times longer in row 0, which would halve a pooled ratio.
        def run(row0_execs):
            results = [{"executions": row0_execs,
                        "explore_cpu_s": row0_execs / 1000},
                       {"executions": 40, "explore_cpu_s": 0.01}]
            return workloads.row_rate(results, [0, 1], "executions",
                                      "explore_cpu_s")
        self.assertAlmostEqual(run(10), 2000.0)
        self.assertAlmostEqual(run(100), 2000.0)

    def test_rows_without_the_count_are_skipped(self):
        results = [{"states": 8, "explore_cpu_s": 2.0}, {"explore_cpu_s": 1.0}]
        self.assertAlmostEqual(
            workloads.row_rate(results, [0, 1], "states", "explore_cpu_s"), 4.0)


class MetricNames(unittest.TestCase):
    def test_benchmark_json_matches_units(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as f:
            spec = json.load(f)
        for key, units in (("end_to_end", workloads.END_TO_END_UNITS),
                           ("per_layer", workloads.PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in spec[key]}, units)
            for m in spec[key]:
                higher = m["name"] in workloads.HIGHER_IS_BETTER
                self.assertEqual(m["better"], "higher" if higher else "lower",
                                 m["name"])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
