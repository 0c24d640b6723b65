"""Congestion control, layered server/receiver, session integration."""

import numpy as np
import pytest

from repro.codes.registry import build_code
from repro.codes.tornado.presets import tornado_a
from repro.errors import ParameterError
from repro.net.loss import BernoulliLoss
from repro.protocol.congestion import CongestionPolicy, SubscriptionController
from repro.protocol.layering import LayerConfig
from repro.protocol.receiver import LayeredReceiver
from repro.protocol.server import LayeredServer
from repro.protocol.session import (
    SessionResult,
    run_session,
    run_single_layer_session,
)


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


class TestLayeredServer:
    def test_round_volume_matches_rates(self):
        code = tornado_a(512, seed=0)
        config = LayerConfig(4)
        policy = CongestionPolicy(burst_interval=100, burst_length=0)
        server = LayeredServer(code, config, policy, seed=1)
        per_layer, burst = server.next_round()
        assert not burst
        for layer, indices in enumerate(per_layer):
            assert indices.size == config.layer_rate(layer) * server.num_blocks

    def test_burst_doubles_volume(self):
        code = tornado_a(512, seed=0)
        config = LayerConfig(4)
        policy = CongestionPolicy(burst_interval=4, burst_length=1)
        server = LayeredServer(code, config, policy, seed=1)
        per_layer, burst = server.next_round()  # round 0 is a burst
        assert burst
        assert per_layer[0].size == 2 * server.num_blocks

    def test_full_level_sees_permutation_per_sweep(self):
        """A top-level subscriber gets every encoding index exactly once
        per full pattern sweep (One Level Property end to end)."""
        code = tornado_a(512, seed=0)  # n=1024, divisible by 8
        config = LayerConfig(4)
        policy = CongestionPolicy(burst_interval=100, burst_length=0)
        server = LayeredServer(code, config, policy, seed=1)
        got = []
        for _ in range(server.rounds_per_sweep):
            per_layer, _ = server.next_round()
            got.extend(np.concatenate(per_layer).tolist())
        assert sorted(got) == list(range(code.n))

    def test_blocks_per_round_granularity(self):
        code = tornado_a(512, seed=0)
        config = LayerConfig(4)
        policy = CongestionPolicy(burst_interval=100, burst_length=0)
        server = LayeredServer(code, config, policy, seed=1,
                               blocks_per_round=16)
        assert server.rounds_per_sweep == server.num_blocks // 16
        per_layer, _ = server.next_round()
        assert per_layer[3].size == 4 * 16

    def test_rateless_sweep_tiles_fresh_ids(self):
        """A rateless code's schedule mints every slot's droplet id
        exactly once per sweep, and never reuses one across sweeps."""
        code = build_code("lt", 512, seed=0)
        config = LayerConfig(4)
        policy = CongestionPolicy(burst_interval=100, burst_length=0)
        server = LayeredServer(code, config, policy, seed=1)
        first_sweep = []
        for _ in range(server.rounds_per_sweep):
            per_layer, _ = server.next_round()
            first_sweep.extend(np.concatenate(per_layer).tolist())
        assert sorted(first_sweep) == list(range(server.schedule_size))
        second_sweep = []
        for _ in range(server.rounds_per_sweep):
            per_layer, _ = server.next_round()
            second_sweep.extend(np.concatenate(per_layer).tolist())
        assert not set(first_sweep) & set(second_sweep)

    def test_rateless_cycle_length_override(self):
        code = build_code("lt", 100, seed=0)
        config = LayerConfig(2)
        policy = CongestionPolicy(burst_interval=100, burst_length=0)
        server = LayeredServer(code, config, policy, cycle_length=64)
        assert server.schedule_size == 64
        with pytest.raises(ParameterError):
            LayeredServer(code, config, policy, cycle_length=0)

    def test_cycle_length_rejected_for_fixed_rate(self):
        code = tornado_a(128, seed=0)
        config = LayerConfig(2)
        policy = CongestionPolicy(burst_interval=100, burst_length=0)
        with pytest.raises(ParameterError, match="rateless"):
            LayeredServer(code, config, policy, cycle_length=64)


class TestLayeredReceiver:
    def _setup(self, capacity, loss):
        code = tornado_a(512, seed=0)
        config = LayerConfig(4)
        policy = CongestionPolicy(burst_interval=4, burst_length=1,
                                  sp_base_interval=8)
        server = LayeredServer(code, config, policy, seed=1,
                               blocks_per_round=16)
        receiver = LayeredReceiver(code, config, policy, capacity,
                                   BernoulliLoss(loss), rng=2)
        return server, receiver

    def test_receiver_completes(self):
        server, receiver = self._setup(capacity=1000, loss=0.1)
        for rnd in range(500):
            per_layer, burst = server.next_round()
            receiver.process_round(rnd, per_layer, burst)
            if receiver.is_complete:
                break
        assert receiver.is_complete
        stats = receiver.stats()
        assert stats.efficiency > 0.5
        assert stats.efficiency == pytest.approx(
            stats.coding_efficiency * stats.distinctness_efficiency)

    def test_congestion_drops_counted(self):
        server, receiver = self._setup(capacity=8, loss=0.0)
        receiver.controller.level = 3
        per_layer, burst = server.next_round()
        receiver.process_round(0, per_layer, burst)
        assert receiver.congestion_drops > 0


class TestSessions:
    def test_single_layer_distinctness_at_low_loss(self):
        code = tornado_a(400, seed=3)
        results = run_single_layer_session(code, [0.05, 0.2], seed=4)
        for r in results:
            assert r.completed
            assert r.distinctness_efficiency == pytest.approx(1.0)

    def test_single_layer_degrades_beyond_half_loss(self):
        code = tornado_a(400, seed=3)
        results = run_single_layer_session(code, [0.65], seed=5)
        assert results[0].completed
        assert results[0].distinctness_efficiency < 0.98

    def test_layered_session_runs_heterogeneous(self):
        code = tornado_a(400, seed=6)
        results = run_session(code, [0.05, 0.15], [8.0, 2.0], seed=7)
        assert all(r.completed for r in results)
        assert all(0 < r.efficiency <= 1 for r in results)

    def test_session_parameter_validation(self):
        code = tornado_a(100, seed=0)
        with pytest.raises(ParameterError):
            run_session(code, [0.1], [1.0, 2.0])

    @pytest.mark.parametrize("spec", ["tornado-a", "lt", "rs"])
    def test_layered_session_over_any_registered_code(self, spec):
        """The scenario unlock: layered multicast over every family."""
        results = run_session(code_spec=spec, k=300,
                              ambient_loss_rates=[0.05, 0.15],
                              capacity_multipliers=[8.0, 2.0], seed=7)
        assert all(r.completed for r in results)
        assert all(0 < r.efficiency <= 1 for r in results)
        assert all(r.code_spec == spec for r in results)

    @pytest.mark.parametrize("spec", ["tornado-a", "lt", "rs"])
    def test_single_layer_session_over_any_registered_code(self, spec):
        results = run_single_layer_session(code_spec=spec, k=300,
                                           loss_rates=[0.2], seed=4)
        assert results[0].completed
        # LT and RS never see a wrap-around duplicate below half loss;
        # the fountain (fresh droplet ids) never sees one at all.
        assert results[0].distinctness_efficiency == pytest.approx(1.0)

    @pytest.mark.parametrize("spec", ["rs", "interleaved:block_k=200"])
    def test_mds_session_has_no_reception_overhead(self, spec):
        """Only packets received *prior to reconstruction* count: an MDS
        code completes on its k-th distinct packet at any loss rate.
        (The receiver's old 64-packet feed loop counted up to 63 more.)"""
        results = run_single_layer_session(
            code_spec=spec, k=200, loss_rates=[0.05, 0.2, 0.4], seed=3)
        for result in results:
            assert result.completed
            assert result.coding_efficiency == 1.0
            assert result.overhead == 0.0

    @pytest.mark.parametrize("spec", ["lt", "tornado-a"])
    @pytest.mark.parametrize("loss", [0.05, 0.4])
    def test_session_stops_on_the_completing_packet(self, spec, loss):
        """The receiver's distinct count at completion is exactly the
        code's decode threshold on the ids it was delivered, in order."""
        code = build_code(spec, 500, seed=2)
        config = LayerConfig(1)
        policy = CongestionPolicy(sp_base_interval=10 ** 6,
                                  burst_interval=10 ** 6 - 1, burst_length=0)
        server = LayeredServer(code, config, policy, seed=3)
        receiver = LayeredReceiver(code, config, policy, 10 ** 9,
                                   BernoulliLoss(loss), rng=4)
        delivered = []
        feed = receiver.client.receive_many

        def recording(indices, payloads=None):
            delivered.append(np.asarray(indices))
            return feed(indices, payloads)

        receiver.client.receive_many = recording
        for rnd in range(4000):
            receiver.process_round(rnd, *server.next_round())
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
        results = run_single_layer_session(code_spec="lt", k=300,
                                           loss_rates=[0.65], seed=5)
        assert results[0].completed
        assert results[0].distinctness_efficiency == pytest.approx(1.0)

    def test_spec_string_as_positional_code(self):
        results = run_session("rs", [0.1], [4.0], k=200, seed=3)
        assert results[0].completed
        assert results[0].code_spec == "rs"

    def test_spec_with_parameters_labels_results(self):
        results = run_single_layer_session(
            code_spec="lt:c=0.05,delta=0.5", k=200, loss_rates=[0.1],
            seed=2)
        assert results[0].code_spec == "lt:c=0.05,delta=0.5"

    def test_code_spec_requires_k(self):
        with pytest.raises(ParameterError, match="k"):
            run_session(code_spec="lt", ambient_loss_rates=[0.1],
                        capacity_multipliers=[1.0])

    def test_code_and_code_spec_mutually_exclusive(self):
        code = tornado_a(100, seed=0)
        with pytest.raises(ParameterError, match="not both"):
            run_session(code, [0.1], [1.0], code_spec="lt", k=100)
        with pytest.raises(ParameterError, match="required"):
            run_session(ambient_loss_rates=[0.1],
                        capacity_multipliers=[1.0])


class TestSessionResult:
    def _result(self, **overrides):
        fields = dict(
            receiver_id=3,
            observed_loss=0.125,
            efficiency=0.8,
            coding_efficiency=0.9,
            distinctness_efficiency=0.888,
            completed=True,
            rounds=17,
            level_changes=2,
            code_spec="lt:c=0.05",
            overhead=0.25,
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
        result = run_single_layer_session(code_spec="tornado-a", k=200,
                                          loss_rates=[0.1], seed=1)[0]
        row = result.as_row()
        assert "tornado-a" in row
        assert f"{result.overhead:+6.1%}" in row
        # overhead and efficiency describe the same reception count.
        assert result.overhead == pytest.approx(
            1 / result.efficiency - 1, abs=0.02)
