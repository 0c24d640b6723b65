"""Congestion control, the layered walk and receiver, session integration."""

import numpy as np
import pytest

from repro.codes.registry import build_code
from repro.codes.tornado.presets import tornado_a
from repro.errors import ParameterError
from repro.fountain.metrics import ReceptionStats
from repro.net.loss import BernoulliLoss
from repro.protocol.congestion import CongestionPolicy, SubscriptionController
from repro.protocol.layering import LayerConfig
from repro.protocol import receiver as protocol_receiver
from repro.protocol.receiver import LayeredReceiver
from repro.protocol.schedule import layered_rounds
from repro.protocol.session import (
    SessionResult,
    _schedule,
    run_session,
    run_single_layer_session,
)


def _sent_ids(code, config, policy, seed, blocks_per_round=None):
    """What a session sends: the walk's rounds mapped onto encoding ids."""
    num_blocks, ids = _schedule(code, config, seed)
    for positions, burst in layered_rounds(
            config, policy, num_blocks, blocks_per_round or num_blocks):
        if ids is not None:
            positions = [ids[p % ids.size] for p in positions]
        yield positions, burst


class TestCongestionPolicy:
    def test_sp_interval_inverse_to_bandwidth(self):
        policy = CongestionPolicy(sp_base_interval=16)
        config = LayerConfig(4)
        intervals = [policy.sp_interval(layer, config) for layer in range(4)]
        # Lower layers get SPs at least as often as higher layers.
        assert intervals == sorted(intervals)
        assert intervals[0] < intervals[-1]

    def test_burst_cadence(self):
        policy = CongestionPolicy(burst_interval=4, burst_length=1)
        bursts = [policy.is_burst_round(r) for r in range(8)]
        assert bursts == [True, False, False, False] * 2

    def test_burst_disabled(self):
        policy = CongestionPolicy(burst_interval=100, burst_length=0)
        assert not any(policy.is_burst_round(r) for r in range(200))

    def test_invalid(self):
        with pytest.raises(ParameterError):
            CongestionPolicy(sp_base_interval=0)
        with pytest.raises(ParameterError):
            CongestionPolicy(burst_interval=2, burst_length=2)
        with pytest.raises(ParameterError):
            CongestionPolicy(drop_loss_threshold=0.1,
                             join_loss_threshold=0.2)


class TestSubscriptionController:
    def _controller(self):
        policy = CongestionPolicy(drop_loss_threshold=0.25,
                                  join_loss_threshold=0.05)
        return SubscriptionController(policy=policy, config=LayerConfig(4),
                                      level=1)

    def test_drop_on_heavy_loss(self):
        ctl = self._controller()
        ctl.observe_round(expected=100, received=50, in_burst=False)
        assert ctl.at_sp() == 0
        assert ctl.drops == 1

    def test_join_after_clean_burst(self):
        ctl = self._controller()
        ctl.observe_round(expected=100, received=100, in_burst=True)
        ctl.end_burst()
        assert ctl.at_sp() == 2
        assert ctl.joins == 1

    def test_no_join_without_burst_verdict(self):
        ctl = self._controller()
        ctl.observe_round(expected=100, received=100, in_burst=False)
        assert ctl.at_sp() == 1

    def test_no_join_after_lossy_burst(self):
        ctl = self._controller()
        ctl.observe_round(expected=100, received=80, in_burst=True)
        ctl.end_burst()
        assert ctl.last_burst_ok is False
        # Post-SP loss is below the drop threshold, so level holds.
        assert ctl.at_sp() == 1

    def test_level_bounds(self):
        ctl = self._controller()
        ctl.level = 0
        ctl.observe_round(100, 0, False)
        assert ctl.at_sp() == 0  # cannot drop below 0
        ctl.level = 3
        ctl.observe_round(100, 100, True)
        ctl.end_burst()
        assert ctl.at_sp() == 3  # cannot join above max


class TestLayeredRounds:
    def test_round_volume_matches_rates(self):
        code = tornado_a(512, seed=0)
        config = LayerConfig(4)
        policy = CongestionPolicy(burst_interval=100, burst_length=0)
        num_blocks = _schedule(code, config, 0)[0]
        per_layer, burst = next(_sent_ids(code, config, policy, seed=1))
        assert not burst
        for layer, indices in enumerate(per_layer):
            assert indices.size == config.layer_rate(layer) * num_blocks

    def test_burst_doubles_volume(self):
        code = tornado_a(512, seed=0)
        config = LayerConfig(4)
        policy = CongestionPolicy(burst_interval=4, burst_length=1)
        # round 0 is a burst
        per_layer, burst = next(_sent_ids(code, config, policy, seed=1))
        assert burst
        assert per_layer[0].size == 2 * _schedule(code, config, 0)[0]

    def test_full_level_sees_permutation_per_sweep(self):
        """A top-level subscriber gets every encoding index exactly once
        per full pattern sweep (One Level Property end to end)."""
        code = tornado_a(512, seed=0)  # n=1024, divisible by 8
        config = LayerConfig(4)
        policy = CongestionPolicy(burst_interval=100, burst_length=0)
        per_layer, _ = next(_sent_ids(code, config, policy, seed=1))
        assert sorted(np.concatenate(per_layer).tolist()) == \
            list(range(code.n))

    def test_blocks_per_round_granularity(self):
        code = tornado_a(512, seed=0)
        config = LayerConfig(4)
        policy = CongestionPolicy(burst_interval=100, burst_length=0)
        num_blocks = _schedule(code, config, 0)[0]
        schedule_size = num_blocks * config.block_size
        rounds = layered_rounds(config, policy, num_blocks, 16)
        sweep = [next(rounds) for _ in range(num_blocks // 16)]
        assert all(per_layer[3].size == 4 * 16 for per_layer, _ in sweep)
        assert max(np.concatenate(per_layer).max()
                   for per_layer, _ in sweep) == schedule_size - 1
        per_layer, _ = next(rounds)  # the next round starts sweep 1
        assert np.concatenate(per_layer).min() == schedule_size

    def test_blocks_per_round_outside_the_sweep_is_refused(self):
        policy = CongestionPolicy(burst_interval=100, burst_length=0)
        for blocks_per_round in (0, 9):
            with pytest.raises(ParameterError, match="blocks_per_round"):
                next(layered_rounds(LayerConfig(2), policy, 8,
                                    blocks_per_round))

    def test_rateless_sweep_tiles_fresh_ids(self):
        """A rateless code's schedule mints every slot's droplet id
        exactly once per sweep, and never reuses one across sweeps."""
        code = build_code("lt", 512, seed=0)
        config = LayerConfig(4)
        policy = CongestionPolicy(burst_interval=100, burst_length=0)
        assert _schedule(code, config, 1)[1] is None
        schedule_size = _schedule(code, config, 0)[0] * config.block_size
        assert schedule_size == 2 * code.k
        rounds = _sent_ids(code, config, policy, seed=1)
        first_sweep = np.concatenate(next(rounds)[0]).tolist()
        assert sorted(first_sweep) == list(range(schedule_size))
        second_sweep = np.concatenate(next(rounds)[0]).tolist()
        assert not set(first_sweep) & set(second_sweep)

    def test_fixed_rate_pad_wraps_onto_the_permutations_start(self):
        """n = 1002 is not a multiple of B = 8: the sweep's 6 pad
        positions carry the permutation's first 6 ids again."""
        code = build_code("rs", 501, seed=0)
        config = LayerConfig(4)
        ids = _schedule(code, config, 2)[1]
        assert code.n == 1002 and ids.size == 1008
        assert sorted(ids[:code.n].tolist()) == list(range(code.n))
        assert ids[code.n:].tolist() == ids[:6].tolist()


class TestLayeredReceiver:
    def _setup(self, capacity, loss):
        code = tornado_a(512, seed=0)
        config = LayerConfig(4)
        policy = CongestionPolicy(burst_interval=4, burst_length=1,
                                  sp_base_interval=8)
        rounds = _sent_ids(code, config, policy, seed=1,
                           blocks_per_round=16)
        receiver = LayeredReceiver(code, config, policy, capacity,
                                   BernoulliLoss(loss), rng=2)
        return rounds, receiver

    def test_receiver_completes(self):
        rounds, receiver = self._setup(capacity=1000, loss=0.1)
        for rnd in range(500):
            per_layer, burst = next(rounds)
            receiver.process_round(rnd, per_layer, burst)
            if receiver.is_complete:
                break
        assert receiver.is_complete
        stats = receiver.stats()
        assert stats.efficiency > 0.5
        assert stats.efficiency == pytest.approx(
            stats.coding_efficiency * stats.distinctness_efficiency)

    def test_congestion_drops_counted(self):
        rounds, receiver = self._setup(capacity=8, loss=0.0)
        receiver.controller.level = 3
        per_layer, burst = next(rounds)
        receiver.process_round(0, per_layer, burst)
        assert receiver.congestion_drops > 0


class TestSessions:
    def test_single_layer_distinctness_at_low_loss(self):
        code = tornado_a(400, seed=3)
        results = run_single_layer_session(code, [0.05, 0.2], seed=4)
        for r in results:
            assert r.completed
            assert r.stats.distinctness_efficiency == pytest.approx(1.0)

    def test_single_layer_degrades_beyond_half_loss(self):
        code = tornado_a(400, seed=3)
        results = run_single_layer_session(code, [0.65], seed=5)
        assert results[0].completed
        assert results[0].stats.distinctness_efficiency < 0.98

    def test_layered_session_runs_heterogeneous(self):
        code = tornado_a(400, seed=6)
        results = run_session(code, [0.05, 0.15], [8.0, 2.0], seed=7)
        assert all(r.completed for r in results)
        assert all(0 < r.stats.efficiency <= 1 for r in results)

    def test_session_parameter_validation(self):
        code = tornado_a(100, seed=0)
        with pytest.raises(ParameterError):
            run_session(code, [0.1], [1.0, 2.0])

    @pytest.mark.parametrize("spec", ["tornado-a", "lt", "rs"])
    def test_layered_session_over_any_registered_code(self, spec):
        """The scenario unlock: layered multicast over every family."""
        results = run_session(spec, k=300,
                              ambient_loss_rates=[0.05, 0.15],
                              capacity_multipliers=[8.0, 2.0], seed=7)
        assert all(r.completed for r in results)
        assert all(0 < r.stats.efficiency <= 1 for r in results)
        assert all(r.code_spec == spec for r in results)

    @pytest.mark.parametrize("spec", ["tornado-a", "lt", "rs"])
    def test_single_layer_session_over_any_registered_code(self, spec):
        results = run_single_layer_session(spec, k=300,
                                           loss_rates=[0.2], seed=4)
        assert results[0].completed
        # LT and RS never see a wrap-around duplicate below half loss;
        # the fountain (fresh droplet ids) never sees one at all.
        assert results[0].stats.distinctness_efficiency == pytest.approx(1.0)

    @pytest.mark.parametrize("spec", ["rs", "interleaved:block_k=200"])
    def test_mds_session_has_no_reception_overhead(self, spec):
        """Only packets received *prior to reconstruction* count: an MDS
        code completes on its k-th distinct packet at any loss rate.
        (The receiver's old 64-packet feed loop counted up to 63 more.)"""
        results = run_single_layer_session(
            spec, k=200, loss_rates=[0.05, 0.2, 0.4], seed=3)
        for result in results:
            assert result.completed
            assert result.stats.coding_efficiency == 1.0
            assert result.stats.reception_overhead == 0.0

    @pytest.mark.parametrize("spec", ["lt", "tornado-a"])
    @pytest.mark.parametrize("loss", [0.05, 0.4])
    def test_session_stops_on_the_completing_packet(self, spec, loss,
                                                    monkeypatch):
        """The receiver's distinct count at completion is exactly the
        code's decode threshold on the ids it was delivered, in order."""
        code = build_code(spec, 500, seed=2)
        config = LayerConfig(1)
        policy = CongestionPolicy(sp_base_interval=10 ** 6,
                                  burst_interval=10 ** 6 - 1, burst_length=0)
        rounds = _sent_ids(code, config, policy, seed=3)
        receiver = LayeredReceiver(code, config, policy, 10 ** 9,
                                   BernoulliLoss(loss), rng=4)
        delivered = []
        feed = protocol_receiver.feed

        def recording(decoder, indices, payloads=None):
            delivered.append(np.asarray(indices))
            return feed(decoder, indices, payloads)

        monkeypatch.setattr(protocol_receiver, "feed", recording)
        for rnd in range(4000):
            receiver.process_round(rnd, *next(rounds))
            if receiver.is_complete:
                break
        assert receiver.is_complete
        arrivals = np.concatenate(delivered)
        _, first = np.unique(arrivals, return_index=True)
        order = arrivals[np.sort(first)]
        stats = receiver.stats()
        assert stats.distinct_received == code.packets_to_decode(order)
        assert stats.total_received == int(np.flatnonzero(
            arrivals == order[stats.distinct_received - 1])[0]) + 1

    def test_rateless_session_distinctness_is_one_at_heavy_loss(self):
        """The carousel degrades past ~50% loss (One Level Property
        ceiling); the rateless fountain does not."""
        results = run_single_layer_session("lt", k=300,
                                           loss_rates=[0.65], seed=5)
        assert results[0].completed
        assert results[0].stats.distinctness_efficiency == pytest.approx(1.0)

    def test_spec_string_as_positional_code(self):
        results = run_session("rs", [0.1], [4.0], k=200, seed=3)
        assert results[0].completed
        assert results[0].code_spec == "rs"

    def test_spec_with_parameters_labels_results(self):
        results = run_single_layer_session(
            "lt:c=0.05,delta=0.5", k=200, loss_rates=[0.1],
            seed=2)
        assert results[0].code_spec == "lt:c=0.05,delta=0.5"

    def test_code_spec_requires_k(self):
        with pytest.raises(ParameterError, match="k"):
            run_session("lt", ambient_loss_rates=[0.1],
                        capacity_multipliers=[1.0])

    def test_code_is_required(self):
        with pytest.raises(ParameterError, match="required"):
            run_session(ambient_loss_rates=[0.1],
                        capacity_multipliers=[1.0])


class TestSessionResult:
    def _result(self, **overrides):
        fields = dict(
            receiver_id=3,
            observed_loss=0.125,
            stats=ReceptionStats(source_packets=8, distinct_received=9,
                                 total_received=10),
            completed=True,
            rounds=17,
            level_changes=2,
            code_spec="lt:c=0.05",
        )
        fields.update(overrides)
        return SessionResult(**fields)

    def test_as_row_contents(self):
        row = self._result().as_row()
        assert "recv   3" in row
        assert "lt:c=0.05" in row          # the code spec is in the row
        assert "overhead +25.0%" in row    # and so is the overhead
        assert "loss  12.5%" in row
        assert "eta  80.0%" in row

    def test_as_row_matches_session_output(self):
        result = run_single_layer_session("tornado-a", k=200,
                                          loss_rates=[0.1], seed=1)[0]
        row = result.as_row()
        assert "tornado-a" in row
        assert f"{result.stats.reception_overhead:+6.1%}" in row
        # overhead and efficiency describe the same reception count.
        assert result.stats.reception_overhead == pytest.approx(
            1 / result.stats.efficiency - 1, abs=0.02)
