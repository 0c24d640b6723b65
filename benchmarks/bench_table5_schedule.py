"""Table 5 — schedule generation and the One Level Property check."""

from itertools import islice

import pytest

from repro.experiments.table5 import PAPER_TABLE5
from repro.protocol.congestion import CongestionPolicy
from repro.protocol.layering import LayerConfig
from repro.protocol.schedule import (
    layered_rounds,
    table5_matrix,
    verify_one_level_property,
)


def test_schedule_matrix(benchmark):
    matrix = benchmark(table5_matrix, 4, 8)
    assert matrix == PAPER_TABLE5


def test_one_level_property_check(benchmark):
    config = LayerConfig(4)
    ok = benchmark(verify_one_level_property, config, 512)
    assert ok


def test_stream_generation(benchmark):
    config = LayerConfig(4)
    policy = CongestionPolicy(burst_interval=100, burst_length=0)

    def consume():
        rounds = layered_rounds(config, policy, 1024 // 8, 1024 // 8)
        return sum(per_layer[3].size for per_layer, _ in islice(rounds, 8))

    count = benchmark(consume)
    assert count == 8 * 4 * (1024 // 8)
