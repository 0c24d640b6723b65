"""Reverse-binary schedule: Table 5 fidelity and the One Level Property."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.experiments.table5 import PAPER_TABLE5
from repro.protocol.congestion import CongestionPolicy
from repro.protocol.layering import LayerConfig
from repro.protocol.schedule import (
    layer_block_range,
    layered_rounds,
    table5_matrix,
    verify_one_level_property,
)
from repro.protocol.session import run_session

def _round(round_index, g):
    """Per-layer ``(start, length)`` ranges for one round, layer 0 first."""
    return [layer_block_range(layer, round_index, g) for layer in range(g)]


#: a policy that never bursts: one schedule round per wall-clock round.
NO_BURST = CongestionPolicy(burst_interval=100, burst_length=0)


class TestLayerConfig:
    def test_geometric_rates(self):
        config = LayerConfig(4)
        assert config.rates() == [1, 1, 2, 4]
        assert config.block_size == 8
        assert config.level_rate(3) == 8
        assert config.level_rate(1) == 2

    def test_single_layer(self):
        config = LayerConfig(1)
        assert config.block_size == 1

    def test_invalid(self):
        with pytest.raises(ParameterError):
            LayerConfig(0)
        with pytest.raises(ParameterError):
            LayerConfig(3).layer_rate(3)


class TestTable5:
    def test_matches_paper_exactly(self):
        assert table5_matrix(4, 8) == PAPER_TABLE5

    def test_round_tiles_block(self):
        """Within every round, the layers' ranges tile the block."""
        for g in (2, 3, 4, 5):
            block = LayerConfig(g).block_size
            for rnd in range(2 ** g):
                covered = []
                for start, length in _round(rnd, g):
                    covered.extend(range(start, start + length))
                assert sorted(covered) == list(range(block)), (g, rnd)

    def test_period(self):
        g = 4
        for layer in range(g):
            assert layer_block_range(layer, 0, g) == \
                layer_block_range(layer, 8, g)

    def test_range_sizes_match_rates(self):
        config = LayerConfig(5)
        for layer in range(5):
            __, length = layer_block_range(layer, 3, 5)
            assert length == config.layer_rate(layer)

    def test_invalid_layer(self):
        with pytest.raises(ParameterError):
            layer_block_range(4, 0, 4)


class TestOneLevelProperty:
    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_verified_for_all_layer_counts(self, g):
        config = LayerConfig(g)
        assert verify_one_level_property(config, config.block_size * 4)

    def test_per_layer_permutation(self):
        """Each layer alone sends a permutation before repeating."""
        config = LayerConfig(4)
        n = config.block_size * 3
        for layer in range(4):
            rate = config.layer_rate(layer) * (n // config.block_size)
            rounds_for_pass = n // rate
            rounds = layered_rounds(config, NO_BURST, 3, 3)
            stream = np.concatenate([per_layer[layer] for per_layer, _ in
                                     islice(rounds, rounds_for_pass)])
            assert sorted((stream % n).tolist()) == list(range(n))

    def test_level_stream_round_structure(self):
        config = LayerConfig(3)
        per_layer, _ = next(layered_rounds(config, NO_BURST, 2, 2))
        # level 1 = layers 0 and 1, each rate 1 per block: 2 blocks ->
        # 4 packets per round.
        assert sum(positions.size for positions in per_layer[:2]) == 4
        # the top layer of four sends 4 per block: 128 blocks -> 512
        # packets in each of the first eight rounds.
        rounds = layered_rounds(LayerConfig(4), NO_BURST, 128, 128)
        assert [per_layer[3].size for per_layer, _ in islice(rounds, 8)] \
            == [4 * 128] * 8

    def test_encoding_size_must_align(self):
        config = LayerConfig(3)
        with pytest.raises(ParameterError):
            verify_one_level_property(config, 10)

    def test_a_broken_rule_is_caught(self, monkeypatch):
        """The check reads the walk: a schedule whose base layer repeats
        its range every round fails it."""
        from repro.protocol import schedule
        rule = schedule.layer_block_range
        monkeypatch.setattr(
            schedule, "layer_block_range",
            lambda layer, rnd, g: rule(layer, 0 if layer == 0 else rnd, g))
        assert not verify_one_level_property(LayerConfig(3), 4 * 8)


@given(g=st.integers(min_value=1, max_value=6),
       rnd=st.integers(min_value=0, max_value=200))
@settings(max_examples=80)
def test_tiling_property(g, rnd):
    """Disjoint full-block coverage holds for every g and round."""
    block = LayerConfig(g).block_size
    covered = []
    for start, length in _round(rnd, g):
        covered.extend(range(start, start + length))
    assert sorted(covered) == list(range(block))


def _level_arrivals(config, policy, num_blocks, blocks_per_round,
                    level, count):
    """Wall-clock rounds of the walk until ``level`` has been sent at
    least ``count`` positions: the positions in arrival order."""
    received = []
    for positions, _ in layered_rounds(config, policy, num_blocks,
                                       blocks_per_round):
        received += positions[:level + 1]
        if sum(p.size for p in received) >= count:
            return np.concatenate(received)


@given(g=st.integers(min_value=2, max_value=5),
       level=st.integers(min_value=0, max_value=4))
@settings(max_examples=30, deadline=None)
def test_one_level_property_random(g, level):
    if level >= g:
        level = g - 1
    config = LayerConfig(g)
    n = config.block_size * 2
    arrivals = _level_arrivals(config, NO_BURST, 2, 2, level, n)[:n]
    assert np.unique(arrivals % n).size == n, \
        "duplicate before full coverage"


@given(g=st.integers(min_value=1, max_value=6),
       num_blocks=st.integers(min_value=1, max_value=12),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_the_walk_keeps_the_one_level_property(g, num_blocks, data):
    """Any block grouping and burst cadence: the first n positions each
    level receives (schedule order, which sweep-major positions are)
    cover an n-position encoding; without bursts, so do the first n
    arrivals; and no position is ever sent twice."""
    blocks_per_round = data.draw(st.integers(1, num_blocks))
    burst_interval = data.draw(st.integers(1, 9))
    policy = CongestionPolicy(
        burst_interval=burst_interval,
        burst_length=data.draw(st.integers(0, burst_interval - 1)))
    config = LayerConfig(g)
    n = num_blocks * config.block_size
    for level in range(g):
        arrivals = _level_arrivals(config, policy, num_blocks,
                                   blocks_per_round, level, n)
        assert np.unique(arrivals).size == arrivals.size
        first = np.sort(arrivals)[:n]
        assert np.unique(first % n).size == n, (level, blocks_per_round)
        if policy.burst_length == 0:
            assert np.unique(arrivals[:n] % n).size == n


@given(seed=st.integers(0, 2 ** 16),
       num_layers=st.integers(min_value=1, max_value=4),
       losses=st.lists(st.floats(0.0, 0.6), min_size=1, max_size=4),
       data=st.data())
@settings(max_examples=12, deadline=None)
def test_a_rateless_session_never_repeats_a_packet(seed, num_layers, losses,
                                                   data):
    """A rateless session's distinctness efficiency is exactly 1 at
    every level, whatever the receivers' capacities and losses."""
    capacities = data.draw(st.lists(st.floats(0.5, 12.0),
                                    min_size=len(losses),
                                    max_size=len(losses)))
    results = run_session("lt", losses, capacities, num_layers=num_layers,
                          seed=seed, k=120)
    for result in results:
        assert result.distinctness_efficiency == 1.0
