#!/usr/bin/env python3
"""Unit tests for the perf_ab verdict rule on synthetic samples (nothing is
built or run), run by the PerfAb.Verdicts ctest."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perf_ab  # noqa: E402

# wall_s's bound differs from the others, so a probe that borrowed the wrong
# one would show.
BENCH = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.3},
                        {"name": "work_per_s", "better": "higher", "bound": 0.25},
                        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}],
         "per_layer": [{"name": "channel.noise_ms.p50", "better": "lower"}]}

BASE = [10.0, 10.1, 9.9, 10.2, 9.8]


def judge(metric, base, head):
    """Verdict on one trial's samples, as for an end-to-end metric."""
    return perf_ab.verdict({None: base}, {None: head}, *perf_ab.rule(BENCH, metric))


def probe(scale):
    """Per-trial samples, times `scale`: trials alternate between 2.5 ms and
    5 ms, and each trial's runs jitter by a few percent."""
    jitter = [1.0, 1.03, 0.97, 1.02, 0.98]
    return {t: [(2.5 if t % 2 else 5.0) * scale * j for j in jitter] for t in range(48)}


class Verdicts(unittest.TestCase):
    def test_clear_regression(self):
        v = judge("wall_s", BASE, [14.0, 14.2, 13.9, 14.1, 14.0])
        self.assertEqual(v["verdict"], "regressed")
        self.assertAlmostEqual(v["worse"], 0.4)

    def test_base_spread_wider_than_bound_is_unresolved(self):
        noisy = [5.0, 8.0, 10.0, 12.0, 20.0]
        self.assertEqual(judge("wall_s", noisy, [30.0] * 5)["verdict"], "unresolved")

    def test_improvement_or_change_within_bound_is_ok(self):
        v = judge("wall_s", BASE, [5.0, 5.1, 4.9, 5.0, 5.0])
        self.assertEqual(v["verdict"], "ok")
        self.assertLess(v["worse"], 0.0)
        self.assertEqual(judge("wall_s", BASE, [12.0] * 5)["verdict"], "ok")

    def test_work_per_s_is_higher_is_better(self):
        self.assertEqual(perf_ab.rule(BENCH, "work_per_s"), ("higher", 0.25))
        self.assertEqual(judge("work_per_s", BASE, [7.0] * 5)["verdict"], "regressed")
        self.assertEqual(judge("work_per_s", BASE, [20.0] * 5)["verdict"], "ok")

    def test_ms_p50_probe_uses_wall_s_bound(self):
        self.assertEqual(perf_ab.rule(BENCH, "channel.noise_ms.p50"), ("lower", 0.3))
        # +28%: past peak_rss_mb's and work_per_s's bounds, inside wall_s's.
        self.assertEqual(judge("channel.noise_ms.p50", BASE, [12.8] * 5)["verdict"], "ok")
        self.assertEqual(judge("channel.noise_ms.p50", BASE, [13.2] * 5)["verdict"],
                         "regressed")

    def test_probe_is_judged_per_trial(self):
        # Half the trials take 2.5 ms and half 5 ms, so the p50 over trials
        # sits between the two sizes; the per-trial changes do not.
        base, slower = probe(1.0), probe(1.4)
        v = perf_ab.verdict(base, slower, *perf_ab.rule(BENCH, "channel.noise_ms.p50"))
        self.assertEqual(v["verdict"], "regressed")
        self.assertAlmostEqual(v["worse"], 0.4)
        self.assertEqual(v["trials"], 48)
        same = perf_ab.verdict(base, probe(1.0), "lower", 0.3)
        self.assertEqual(same["verdict"], "ok")
        self.assertAlmostEqual(same["worse"], 0.0)

    def test_zero_base_median(self):
        self.assertEqual(judge("wall_s", [0.0] * 5, [0.0] * 5)["verdict"], "ok")
        self.assertEqual(judge("wall_s", [0.0] * 5, [1.0] * 5)["verdict"], "regressed")


if __name__ == "__main__":
    unittest.main()
