"""Ablation — degree-distribution families for the Tornado cascade.

The Tornado presets (:mod:`repro.codes.tornado.presets`) rest on the
claim that the two-point (3/20) family gives the most robust
finite-length peeling among the openly reproducible candidates; this
bench re-runs the selection experiment at
small scale and records each family's mean reception overhead.
"""

import numpy as np
import pytest

from repro.codes.tornado.code import TornadoCode
from repro.codes.tornado.degree import (
    heavy_tail_distribution,
    regular_distribution,
    two_point_distribution,
)
from repro.sim.overhead import sample_decode_thresholds

K = 512
FAMILIES = {
    "two_point_3_20": two_point_distribution(3, 20, 0.30),
    "heavy_tail_8": heavy_tail_distribution(8),
    "heavy_tail_20": heavy_tail_distribution(20),
    "regular_4": regular_distribution(4),
}


@pytest.mark.parametrize("family", list(FAMILIES), ids=list(FAMILIES))
def test_family_overhead(benchmark, family):
    code = TornadoCode(K, degree_dist=FAMILIES[family], seed=0)

    def measure():
        thresholds = sample_decode_thresholds(code, 8, rng=1)
        return float(thresholds.mean() / K - 1)

    overhead = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["mean_overhead"] = overhead
    benchmark.extra_info["avg_degree"] = FAMILIES[family].average_degree


def test_two_point_wins(benchmark):
    """The preset family's overhead beats the naive regular graph."""

    def compare():
        out = {}
        for name in ("two_point_3_20", "regular_4"):
            code = TornadoCode(K, degree_dist=FAMILIES[name], seed=0)
            thresholds = sample_decode_thresholds(code, 10, rng=2)
            out[name] = float(thresholds.mean())
        return out

    means = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert means["two_point_3_20"] < means["regular_4"]
