"""LT rateless overhead — the fountain vs. the carousel approximation.

Measures the reception overhead (droplets needed / k - 1) of the LT code
across k, against the repo's fixed-rate baselines on the same axis:

* Tornado A / B decode thresholds (coding overhead only), and
* the *carousel* total-reception overhead: a Tornado A encoding cycled
  under random loss, where wrap-around duplicates add the distinctness
  penalty the rateless stream structurally never pays.
"""

import numpy as np
import pytest

from repro.codes.lt import LTCode
from repro.codes.tornado.presets import tornado_a, tornado_b
from repro.codes.registry import feed, incremental_decoder
from repro.sim.overhead import overhead_statistics, sample_decode_thresholds
from repro.transfer.schedule import carousel_order

TRIALS = 8


def lt_thresholds(code, trials, rng):
    gen = np.random.default_rng(rng)
    out = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        out[t] = code.packets_to_decode(gen.permutation(6 * code.k))
    return out


@pytest.mark.parametrize("k", [256, 1024], ids=["k256", "k1024"])
def test_lt_threshold_measurement(benchmark, k):
    code = LTCode(k, seed=0)
    rng = np.random.default_rng(1)

    def one_trial():
        return code.packets_to_decode(rng.permutation(6 * k))

    threshold = benchmark(one_trial)
    assert k <= threshold <= 1.5 * k


@pytest.mark.parametrize("k", [256, 1024], ids=["k256", "k1024"])
def test_lt_overhead_vs_tornado(benchmark, k):
    """LT (ML decoding) sits at or below the Tornado A overhead band."""

    def batch():
        lt = overhead_statistics(
            lt_thresholds(LTCode(k, seed=0), TRIALS, rng=2), k)
        a = overhead_statistics(
            sample_decode_thresholds(tornado_a(k, seed=0), TRIALS, rng=2), k)
        b = overhead_statistics(
            sample_decode_thresholds(tornado_b(k, seed=0), TRIALS, rng=2), k)
        return lt, a, b

    lt, a, b = benchmark.pedantic(batch, rounds=1, iterations=1)
    benchmark.extra_info["lt_mean_overhead"] = lt.mean
    benchmark.extra_info["tornado_a_mean_overhead"] = a.mean
    benchmark.extra_info["tornado_b_mean_overhead"] = b.mean
    assert lt.mean < a.mean
    assert lt.mean < 0.15


def test_lt_beats_carousel_total_reception(benchmark):
    """Duplicate-free rateless reception vs. carousel wrap-around.

    The carousel client counts *total* receptions (duplicates included)
    under 20% loss; the LT client counts droplets — every one distinct.
    """
    k = 256
    loss = 0.2

    def compare():
        code = tornado_a(k, seed=0)
        decoder = incremental_decoder(code)
        drop = np.random.default_rng(2)
        carousel_total = 0
        for index in np.resize(carousel_order(code.n, 1), 20 * k):
            if drop.random() < loss:
                continue
            carousel_total += feed(decoder, (int(index),))
            if decoder.is_complete:
                break
        lt_needed = LTCode(k, seed=0).packets_to_decode(
            np.random.default_rng(3).permutation(6 * k))
        return carousel_total, lt_needed

    carousel_total, lt_needed = benchmark.pedantic(compare, rounds=1,
                                                   iterations=1)
    benchmark.extra_info["carousel_total_overhead"] = carousel_total / k - 1
    benchmark.extra_info["lt_overhead"] = lt_needed / k - 1
    assert lt_needed < carousel_total
