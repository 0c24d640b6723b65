"""Table 3 — decoding times: Reed-Solomon vs Tornado across sizes.

RS decodes from k/2 source + k/2 redundant packets (the paper's
protocol); Tornado decodes from its own threshold packet set.
"""

import time

import numpy as np
import pytest

from conftest import random_source
from repro.codes.reed_solomon import ReedSolomonCode
from repro.codes.tornado.presets import tornado_a, tornado_b

PAYLOAD = 512
RS_SIZES = [64, 128, 256]
TORNADO_SIZES = [256, 1024, 4096]


def test_tornado_decode_rate(benchmark):
    """Raw decode MB/s on one mid-size tornado block."""
    k = 1024
    code = tornado_b(k, seed=0)
    source = random_source(k, PAYLOAD)
    encoding = code.encode(source)
    rng = np.random.default_rng(1)
    order = rng.permutation(code.n)
    needed = code.packets_to_decode(order)
    received = {int(i): encoding[i] for i in order[:needed]}

    def timed():
        start = time.perf_counter()
        result = code.decode(received)
        return result, time.perf_counter() - start

    result, elapsed = benchmark.pedantic(timed, rounds=1, iterations=1)
    assert np.array_equal(result, source)
    benchmark.extra_info["decode_MBps"] = round(
        source.nbytes / elapsed / 1e6, 1)


def _rs_received(code, k):
    source = random_source(k, PAYLOAD, code.field.dtype)
    encoding = code.encode(source)
    half = k // 2
    received = {i: encoding[i] for i in range(half)}
    for j in range(k - half):
        received[k + j] = encoding[k + j]
    return received, source


@pytest.mark.parametrize("k", RS_SIZES)
@pytest.mark.parametrize("construction", ["vandermonde", "cauchy"])
def test_rs_decode(benchmark, construction, k):
    code = ReedSolomonCode(k, 2 * k, construction)
    received, source = _rs_received(code, k)
    result = benchmark(code.decode, received)
    assert np.array_equal(result, source)


@pytest.mark.parametrize("k", TORNADO_SIZES)
@pytest.mark.parametrize("preset", [tornado_a, tornado_b],
                         ids=["tornado_a", "tornado_b"])
def test_tornado_decode(benchmark, preset, k):
    code = preset(k, seed=0)
    source = random_source(k, PAYLOAD)
    encoding = code.encode(source)
    rng = np.random.default_rng(1)
    order = rng.permutation(code.n)
    needed = code.packets_to_decode(order)
    received = {int(i): encoding[i] for i in order[:needed]}
    benchmark.extra_info["packets_used"] = needed
    benchmark.extra_info["overhead"] = needed / k - 1
    result = benchmark(code.decode, received)
    assert np.array_equal(result, source)
