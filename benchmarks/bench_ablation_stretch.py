"""Ablation — stretch factor (paper Section 7.1.2 discussion).

"Use of a large stretch factor provides more flexibility, but slows
decoding time and increases the space requirements for decoding. For
these reasons, we typically choose a stretch factor c = 2 as compared
to c = 8 used in [17, 18]."  This bench quantifies both sides: larger
stretch lowers duplicate rates at extreme loss but grows the decoder's
structure (edges/memory).
"""

import numpy as np
import pytest

from repro.codes.tornado.code import TornadoCode
from repro.codes.tornado.degree import two_point_distribution
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss
from repro.sim.overhead import ThresholdPool
from repro.sim.transfer import SlotWindow, packets_until_decode

K = 400
STRETCHES = [1.5, 2.0, 4.0]


def _code(stretch):
    return TornadoCode(K, degree_dist=two_point_distribution(3, 20, 0.30),
                       stretch=stretch, seed=0)


@pytest.mark.parametrize("stretch", STRETCHES)
def test_structure_cost(benchmark, stretch):
    def build():
        return _code(stretch)

    code = benchmark.pedantic(build, rounds=1, iterations=1)
    benchmark.extra_info["n"] = code.n
    benchmark.extra_info["edges"] = code.total_edges


@pytest.mark.parametrize("stretch", [2.0, 4.0])
def test_duplicates_at_extreme_loss(benchmark, stretch):
    """At 60% loss a bigger carousel wraps less, so fewer duplicates."""
    code = _code(stretch)
    pool = ThresholdPool.for_code(code, trials=10, rng=1)
    # the carousel's slots: a Tornado plan of the same n (only ids matter)
    window = SlotWindow(K, K, f"tornado-a:stretch={stretch}")
    assert window.block_n.tolist() == [code.n]

    def receive():
        rng = np.random.default_rng(2)
        totals = [packets_until_decode(window, int(t),
                                       LossyChannel(BernoulliLoss(0.6), rng))
                  for t in pool.sample(10, rng)]
        return float(np.mean(totals))

    mean_total = benchmark.pedantic(receive, rounds=1, iterations=1)
    benchmark.extra_info["mean_total_received"] = mean_total
    benchmark.extra_info["mean_efficiency"] = K / mean_total
