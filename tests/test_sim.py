"""Simulation harnesses: overhead sampling, reception sims, scaling, speedup."""

import numpy as np
import pytest

from repro.codes.interleaved import InterleavedCode
from repro.codes.lt.code import LTCode
from repro.codes.reed_solomon import cauchy_code
from repro.codes.tornado.presets import tornado_a
from repro.errors import DecodeFailure, ParameterError
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss, TraceLoss
from repro.net.traces import synthesize_mbone_traces
from repro.sim.overhead import (
    ThresholdPool,
    overhead_statistics,
    percent_unfinished_curve,
    sample_decode_thresholds,
)
from repro.sim.receivers import (
    build_fountain_pool,
    build_interleaved_pool,
    scaling_experiment,
)
from repro.sim.speedup import max_blocks_within_overhead, speedup_table_entry
from repro.sim.timemodel import TimingModel
from repro.sim.tracesim import trace_fountain_efficiency
from repro.sim.transfer import SlotWindow, packets_until_decode
from repro.transfer.client import TransferClient
from repro.transfer.server import TransferServer


def fountain_total(threshold, n, loss, rng=None):
    """A fountain receiver that needs ``threshold`` distinct packets of
    one ``n``-packet carousel (an ``rs`` block of ``n / 2``)."""
    window = SlotWindow(n // 2, n // 2, "rs")
    return packets_until_decode(window, threshold, LossyChannel(loss, rng))


def interleaved_total(window, loss, rng):
    """An interleaved receiver: every block needs its ``k_b``."""
    return packets_until_decode(window, window.codec.plan.block_ks,
                                LossyChannel(loss, rng))


class TestOverheadSampling:
    def test_rs_thresholds_exactly_k(self):
        code = cauchy_code(30)
        thresholds = sample_decode_thresholds(code, 10, rng=0)
        assert (thresholds == 30).all()

    def test_tornado_thresholds_above_k(self):
        code = tornado_a(300, seed=1)
        thresholds = sample_decode_thresholds(code, 8, rng=1)
        assert (thresholds >= 300).all()
        assert (thresholds <= code.n).all()

    def test_statistics(self):
        stats = overhead_statistics([110, 120], k=100)
        assert stats.mean == pytest.approx(0.15)
        assert stats.minimum == pytest.approx(0.10)
        assert stats.maximum == pytest.approx(0.20)

    def test_unfinished_curve_monotone(self):
        grid, pct = percent_unfinished_curve([110, 115, 120, 150], k=100)
        assert pct[0] == 100.0
        assert (np.diff(pct) <= 0).all()
        assert pct[-1] == 0.0

    def test_pool_sampling(self):
        pool = ThresholdPool(thresholds=np.array([100, 200]), k=100)
        draws = pool.sample(1000, rng=2)
        assert set(np.unique(draws)) <= {100, 200}

    def test_empty_trials_rejected(self):
        with pytest.raises(ParameterError):
            sample_decode_thresholds(cauchy_code(4), 0)

    def test_rateless_code_rejected(self):
        # a rateless code has no n to permute; the swarm draws its
        # thresholds over loss-thinned droplet ids instead
        with pytest.raises(ParameterError, match="rateless"):
            sample_decode_thresholds(LTCode(64), 3)
        with pytest.raises(ParameterError, match="rateless"):
            ThresholdPool.for_code(LTCode(64), trials=3)


class TestFountainReception:
    def test_no_loss_exact(self):
        # threshold distinct packets with no loss -> exactly threshold.
        total = fountain_total(50, 100, BernoulliLoss(0.0), rng=0)
        assert total == 50

    def test_loss_increases_total(self):
        t_lossy = fountain_total(90, 100, BernoulliLoss(0.5), rng=1)
        assert t_lossy >= 90

    def test_wraparound_duplicates(self):
        """Needing more than one cycle's survivors forces duplicates."""
        rng = np.random.default_rng(2)
        totals = [fountain_total(95, 100, BernoulliLoss(0.5), rng=rng)
                  for _ in range(20)]
        assert max(totals) > 100  # some runs must wrap the carousel

    def test_threshold_validation(self):
        with pytest.raises(ParameterError):
            fountain_total(0, 10, BernoulliLoss(0.1))
        with pytest.raises(ParameterError):
            fountain_total(11, 10, BernoulliLoss(0.1))

    def test_impossible_raises(self):
        # complete outage: never completes within the emission limit
        trace = TraceLoss(np.ones(10, dtype=bool))
        with pytest.raises(DecodeFailure):
            fountain_total(5, 10, trace, rng=0)

    def test_a_trace_fade_in_the_first_cycle_passes(self):
        """Every cycle used to replay the trace's first cycle, so a
        receiver whose first cycle fell in a fade never completed."""
        fade = TraceLoss(np.repeat([True, False], 10))
        assert fountain_total(5, 10, fade, rng=0) == 5


    @pytest.mark.parametrize("stretch", [2.0, 4.0])
    def test_a_carousel_window_spans_the_codes_encoding(self, stretch):
        window = SlotWindow(400, 400, f"tornado-a:stretch={stretch}")
        code = tornado_a(400, stretch=stretch, seed=0)
        assert window.block_n.tolist() == [code.n]


class TestInterleavedReception:
    def test_no_loss_counts_until_all_blocks_full(self):
        window = SlotWindow(40, 20, "rs")
        total = interleaved_total(window, BernoulliLoss(0.0), rng=0)
        # Interleaved order fills both blocks' source quota after exactly
        # 2 * 20 slots (one packet per block in turn).
        assert total == 40

    def test_matches_packets_to_decode_under_no_loss(self):
        window = SlotWindow(60, 20, "rs")
        total = interleaved_total(window, BernoulliLoss(0.0), rng=0)
        blocks, indices, _ = TransferServer(window.codec).draw_ids(120)
        client = TransferClient(window.codec, payload_size=None)
        assert total == client.receive_window(blocks, indices)

    def test_loss_worsens_with_more_blocks(self):
        rng = np.random.default_rng(3)
        few = SlotWindow(200, 100, "rs")
        many = SlotWindow(200, 10, "rs")
        t_few = np.mean([interleaved_total(few, BernoulliLoss(0.5), rng)
                         for _ in range(15)])
        t_many = np.mean([interleaved_total(many, BernoulliLoss(0.5), rng)
                          for _ in range(15)])
        assert t_many > t_few  # coupon-collector penalty

    def test_count_equals_a_structural_transfer_client(self):
        """On the same channel mask, the engine's count is the one a
        structural TransferClient takes over the server's own stream,
        receiver by receiver (an rs block completes at exactly k_b
        distinct packets)."""
        window = SlotWindow(4000, 50, "rs")
        codec = window.codec
        blocks, indices, _ = TransferServer(codec).draw_ids(20_000)
        for receiver in range(60):
            engine = packets_until_decode(
                window, codec.plan.block_ks,
                LossyChannel(BernoulliLoss(0.1), rng=receiver))
            mask = LossyChannel(BernoulliLoss(0.1),
                                rng=receiver).delivery_mask(blocks.size)
            client = TransferClient(codec, payload_size=None)
            assert client.receive_window(blocks[mask],
                                         indices[mask]) == engine

    def test_window_cuts_the_papers_interleaved_split(self):
        """Where ``block_k`` does not divide K, the blocks are as even as
        InterleavedCode cuts them (250 at 20: three of 20, then ten of
        19), and the engine still counts what a structural
        TransferClient counts on the same mask."""
        window = SlotWindow(250, 20, "rs")
        icode = InterleavedCode(250, 20)
        assert window.codec.plan.block_ks == icode.block_sizes
        assert window.block_n.tolist() == icode.block_ns
        blocks, indices, _ = TransferServer(window.codec).draw_ids(2_000)
        for receiver in range(10):
            engine = interleaved_total(window, BernoulliLoss(0.3), receiver)
            mask = LossyChannel(BernoulliLoss(0.3),
                                rng=receiver).delivery_mask(blocks.size)
            client = TransferClient(window.codec, payload_size=None)
            assert client.receive_window(blocks[mask],
                                         indices[mask]) == engine

    def test_needs_are_checked_per_block(self):
        window = SlotWindow(30, 10, "rs")
        with pytest.raises(ParameterError):
            packets_until_decode(window, [10, 10, 21],
                                 LossyChannel(BernoulliLoss(0.0)))

    def test_a_rateless_plan_has_no_slot_window(self):
        with pytest.raises(ParameterError):
            SlotWindow(100, 50, "lt")


class TestPoolsAndScaling:
    def test_fountain_pool(self):
        code = tornado_a(200, seed=4)
        tpool = ThresholdPool.for_code(code, trials=10, rng=5)
        pool = build_fountain_pool(tpool,
                                   SlotWindow(200, 200, "tornado-a"),
                                   BernoulliLoss(0.1), pool_size=20, rng=6)
        assert pool.totals.size == 20
        assert 0 < pool.average_efficiency() <= 1

    def test_scaling_monotone_worst_case(self):
        window = SlotWindow(200, 20, "rs")
        pool = build_interleaved_pool(window, BernoulliLoss(0.5),
                                      pool_size=40, rng=7)
        results = scaling_experiment(pool, [1, 10, 100], experiments=30,
                                     rng=8)
        worsts = [r.worst for r in results]
        assert worsts[0] >= worsts[1] >= worsts[2]

    def test_scaling_validation(self):
        window = SlotWindow(100, 20, "rs")
        pool = build_interleaved_pool(window, BernoulliLoss(0.1),
                                      pool_size=5, rng=9)
        with pytest.raises(ParameterError):
            scaling_experiment(pool, [0], experiments=1)


class TestTraceSim:
    def test_fountain_on_traces(self):
        traces = synthesize_mbone_traces(10, 5000, rng=10)
        code = tornado_a(150, seed=11)
        tpool = ThresholdPool.for_code(code, trials=8, rng=12)
        window = SlotWindow(150, 150, "tornado-a")
        result = trace_fountain_efficiency(tpool, window, traces, rng=13)
        assert result.completed_receivers > 0
        assert 0 < result.average_efficiency <= 1


class TestSpeedup:
    def test_timing_model_quadratic(self):
        model = TimingModel.fit(block_sizes=(8, 16), payload=64, repeats=1)
        assert model.coeff > 0
        assert model.predict(32) == pytest.approx(model.coeff * 32 * 32)
        assert model.interleaved_decode_time(100, 5) == pytest.approx(
            5 * model.predict(20))

    def test_more_blocks_never_passes_if_fewer_fails(self):
        """max_blocks search returns a feasible block count."""
        bound = 0.5  # generous bound so the search definitely moves
        blocks = max_blocks_within_overhead(100, 0.1, bound, trials=15,
                                            rng=14)
        assert blocks >= 1

    def test_tighter_bound_fewer_blocks(self):
        loose = max_blocks_within_overhead(200, 0.5, 0.5, trials=15, rng=15)
        tight = max_blocks_within_overhead(200, 0.5, 0.10, trials=15, rng=15)
        assert tight <= loose

    def test_entry_composition(self):
        model = TimingModel(coeff=1e-6)
        entry = speedup_table_entry(100, 0.1, 0.5, model,
                                    tornado_decode_seconds=1e-3,
                                    trials=10, rng=16)
        assert entry.num_blocks >= 1
        assert entry.speedup == pytest.approx(
            entry.interleaved_decode_seconds / 1e-3)
