"""Figure 6 — trace-driven reception over the synthetic MBone traces."""

import pytest

from repro.codes.tornado.presets import tornado_a
from repro.net.traces import synthesize_mbone_traces
from repro.sim.overhead import ThresholdPool
from repro.sim.tracesim import (
    trace_fountain_efficiency,
    trace_interleaved_efficiency,
)
from repro.sim.transfer import SlotWindow

K = 400


@pytest.fixture(scope="module")
def traces():
    return synthesize_mbone_traces(30, 40_000, rng=0)


def test_trace_synthesis(benchmark):
    trace_set = benchmark.pedantic(synthesize_mbone_traces,
                                   args=(30, 40_000),
                                   kwargs={"rng": 1},
                                   rounds=1, iterations=1)
    benchmark.extra_info["avg_loss"] = trace_set.average_loss_rate()


def test_fountain_on_traces(benchmark, traces):
    pool = ThresholdPool.for_code(tornado_a(K, seed=0), trials=12, rng=2)
    result = benchmark.pedantic(trace_fountain_efficiency,
                                args=(pool,
                                      SlotWindow(K, K, "tornado-a"),
                                      traces),
                                kwargs={"rng": 3},
                                rounds=1, iterations=1)
    benchmark.extra_info["avg_efficiency"] = result.average_efficiency
    assert result.completed_receivers > 0


def test_interleaved_on_traces(benchmark, traces):
    window = SlotWindow(K, 20, "rs")
    result = benchmark.pedantic(trace_interleaved_efficiency,
                                args=(window, traces),
                                kwargs={"rng": 4},
                                rounds=1, iterations=1)
    benchmark.extra_info["avg_efficiency"] = result.average_efficiency
    assert result.completed_receivers > 0
