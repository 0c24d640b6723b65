"""Table 2 — encoding times: Reed-Solomon vs Tornado across sizes.

Sized-down grid (pytest-benchmark repeats runs); the full paper grid is
``python -m repro.experiments.table2``.  The shape claim asserted here:
Tornado encoding beats both RS constructions by a widening margin.
"""

import time

import pytest

from conftest import random_source
from repro.codes.reed_solomon import ReedSolomonCode
from repro.codes.tornado.presets import tornado_a, tornado_b

PAYLOAD = 512
RS_SIZES = [64, 128, 256]
TORNADO_SIZES = [256, 1024, 4096]


@pytest.mark.parametrize("family,factory", [
    ("tornado-b", lambda k: tornado_b(k, seed=0)),
    ("rs-cauchy", lambda k: ReedSolomonCode(k, 2 * k, "cauchy")),
], ids=["tornado-b", "rs-cauchy"])
def test_encode_rate(benchmark, family, factory):
    """Raw encode MB/s on one mid-size block."""
    k = 256
    code = factory(k)
    dtype = code.field.dtype if hasattr(code, "field") else "uint8"
    source = random_source(k, PAYLOAD, dtype)

    def timed():
        start = time.perf_counter()
        code.encode(source)
        return time.perf_counter() - start

    elapsed = benchmark.pedantic(timed, rounds=1, iterations=3)
    benchmark.extra_info["encode_MBps"] = round(
        source.nbytes / elapsed / 1e6, 1)


@pytest.mark.parametrize("k", RS_SIZES)
@pytest.mark.parametrize("construction", ["vandermonde", "cauchy"])
def test_rs_encode(benchmark, construction, k):
    code = ReedSolomonCode(k, 2 * k, construction)
    source = random_source(k, PAYLOAD, code.field.dtype)
    benchmark.extra_info["k"] = k
    benchmark(code.encode, source)


@pytest.mark.parametrize("k", TORNADO_SIZES)
@pytest.mark.parametrize("preset", [tornado_a, tornado_b],
                         ids=["tornado_a", "tornado_b"])
def test_tornado_encode(benchmark, preset, k):
    code = preset(k, seed=0)
    source = random_source(k, PAYLOAD)
    benchmark.extra_info["k"] = k
    benchmark.extra_info["edges"] = code.total_edges
    benchmark(code.encode, source)


def test_tornado_beats_rs_at_equal_size(benchmark):
    """The headline Table 2 ordering at one size, asserted."""
    import time
    k = 256
    rs = ReedSolomonCode(k, 2 * k, "cauchy")
    tor = tornado_a(k, seed=0)
    src_rs = random_source(k, PAYLOAD, rs.field.dtype)
    src_t = random_source(k, PAYLOAD)

    def both():
        t0 = time.perf_counter()
        rs.encode(src_rs)
        rs_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        tor.encode(src_t)
        tor_time = time.perf_counter() - t0
        assert tor_time < rs_time
        return rs_time / max(tor_time, 1e-9)

    ratio = benchmark(both)
    benchmark.extra_info["rs_over_tornado"] = ratio
