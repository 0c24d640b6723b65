"""Figure 4 — receiver-scaling machinery: pools and bootstrap sweeps."""

import pytest

from repro.codes.tornado.presets import tornado_a
from repro.net.loss import BernoulliLoss
from repro.sim.overhead import ThresholdPool
from repro.sim.receivers import (
    build_fountain_pool,
    build_interleaved_pool,
    scaling_experiment,
)
from repro.sim.transfer import SlotWindow

K = 512
CAROUSEL = SlotWindow(K, K, "tornado-a")


@pytest.fixture(scope="module")
def threshold_pool():
    return ThresholdPool.for_code(tornado_a(K, seed=0), trials=25, rng=1)


def test_build_fountain_pool(benchmark, threshold_pool):
    benchmark.pedantic(
        build_fountain_pool,
        args=(threshold_pool, CAROUSEL, BernoulliLoss(0.5)),
        kwargs={"pool_size": 40, "rng": 2},
        rounds=1, iterations=1)


def test_build_interleaved_pool(benchmark):
    window = SlotWindow(K, 20, "rs")
    benchmark.pedantic(
        build_interleaved_pool,
        args=(window, BernoulliLoss(0.5)),
        kwargs={"pool_size": 40, "rng": 3},
        rounds=1, iterations=1)


def test_scaling_sweep(benchmark, threshold_pool):
    pool = build_fountain_pool(threshold_pool, CAROUSEL, BernoulliLoss(0.5),
                               pool_size=40, rng=4)
    results = benchmark(scaling_experiment, pool, [1, 10, 100, 1000, 10000],
                        100, 5)
    assert len(results) == 5


def test_figure4_shape_claim(benchmark):
    """Tornado's worst case dominates interleaved k=20 at 10^4 receivers."""

    def shape():
        tpool = ThresholdPool.for_code(tornado_a(K, seed=0), trials=15,
                                       rng=6)
        fpool = build_fountain_pool(tpool, CAROUSEL, BernoulliLoss(0.5),
                                    pool_size=30, rng=7)
        ipool = build_interleaved_pool(SlotWindow(K, 20, "rs"),
                                       BernoulliLoss(0.5),
                                       pool_size=30, rng=8)
        ftor = scaling_experiment(fpool, [10000], 40, 9)[0].worst
        fint = scaling_experiment(ipool, [10000], 40, 10)[0].worst
        return ftor, fint

    ftor, fint = benchmark.pedantic(shape, rounds=1, iterations=1)
    benchmark.extra_info["tornado_worst"] = ftor
    benchmark.extra_info["interleaved20_worst"] = fint
    assert ftor > fint
