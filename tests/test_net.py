"""Loss models, traces, channels."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, TraceLoss
from repro.net.traces import synthesize_mbone_traces
from repro.transfer import BlockPlan, ObjectCodec, TransferServer


class TestBernoulli:
    def test_rate_matches(self):
        model = BernoulliLoss(0.3)
        losses = model.losses(50_000, 0)
        assert abs(losses.mean() - 0.3) < 0.01
        assert model.expected_loss_rate() == 0.3

    def test_zero_loss(self):
        assert not BernoulliLoss(0.0).losses(100, 0).any()

    def test_invalid(self):
        with pytest.raises(ParameterError):
            BernoulliLoss(1.0)
        with pytest.raises(ParameterError):
            BernoulliLoss(-0.1)


class TestGilbertElliott:
    def test_stationary_rate(self):
        model = GilbertElliottLoss.from_loss_and_burst(0.2, 5.0)
        assert model.expected_loss_rate() == pytest.approx(0.2)
        losses = model.losses(60_000, 1)
        assert abs(losses.mean() - 0.2) < 0.02

    def test_burstiness(self):
        """Mean run length of losses should approach the burst target."""
        model = GilbertElliottLoss.from_loss_and_burst(0.2, 8.0)
        losses = model.losses(60_000, 2).astype(int)
        changes = np.diff(losses)
        starts = int((changes == 1).sum())
        total_lost = int(losses.sum())
        mean_burst = total_lost / max(starts, 1)
        assert mean_burst > 4.0  # far burstier than Bernoulli (~1.25)

    def test_invalid(self):
        with pytest.raises(ParameterError):
            GilbertElliottLoss(0.0, 0.5)
        with pytest.raises(ParameterError):
            GilbertElliottLoss.from_loss_and_burst(0.2, 0.5)


class TestTraceLoss:
    def test_replay_with_offset(self):
        trace = np.array([True, False, False, True])
        model = TraceLoss(trace, offset=1)
        out = model.losses(6)
        assert out.tolist() == [False, False, True, True, False, False]

    @given(trace=st.lists(st.booleans(), min_size=1, max_size=40),
           offset=st.integers(0, 100), first=st.integers(0, 90),
           second=st.integers(0, 90))
    def test_any_split_reads_the_same_verdicts(self, trace, offset, first,
                                               second):
        """A trace's read position lives in the channel: two
        ``delivery_mask`` calls read the verdicts of one long
        ``losses`` call, whatever the split."""
        model = TraceLoss(np.array(trace), offset)
        whole = model.losses(first + second)
        channel = LossyChannel(model, rng=0)
        split = ~np.concatenate([channel.delivery_mask(first),
                                 channel.delivery_mask(second)])
        assert split.tolist() == whole.tolist()

    def test_a_channel_reads_the_trace_past_one_chunk(self):
        """A channel asks its model for 512 verdicts at a time; over a
        trace it used to get the same 512 for the whole stream."""
        trace = np.random.default_rng(3).random(2_000) < 0.3
        channel = LossyChannel(TraceLoss(trace, offset=100), rng=0)
        lost = ~channel.delivery_mask(1_500)
        assert lost.tolist() == trace[100:1_600].tolist()

    def test_rate(self):
        model = TraceLoss(np.array([True, False]))
        assert model.expected_loss_rate() == 0.5

    def test_invalid(self):
        with pytest.raises(ParameterError):
            TraceLoss(np.zeros((2, 2), dtype=bool))


class TestSyntheticTraces:
    def test_shape_and_calibration(self):
        traces = synthesize_mbone_traces(40, 30_000, rng=3)
        assert traces.num_receivers == 40
        assert traces.length == 30_000
        rates = traces.loss_rates()
        # Heterogeneous: low-loss and high-loss receivers both present.
        assert rates.min() < 0.08
        assert rates.max() > 0.25
        # Ensemble mean near the paper's ~18% (tolerant band).
        assert 0.10 < traces.average_loss_rate() < 0.30

    def test_offsets_in_range(self):
        traces = synthesize_mbone_traces(5, 1000, rng=4)
        offsets = traces.random_offsets(5)
        assert offsets.size == 5
        assert (offsets >= 0).all() and (offsets < 1000).all()

    def test_loss_model_roundtrip(self):
        traces = synthesize_mbone_traces(3, 1000, rng=5)
        model = traces.loss_model(1, offset=10)
        assert model.losses(5).tolist() == traces.traces[1][10:15].tolist()


class TestChannel:
    def test_observed_rate(self):
        channel = LossyChannel(BernoulliLoss(0.4), rng=0)
        channel.delivery_mask(20_000)
        assert abs(channel.observed_loss_rate - 0.4) < 0.02

    def test_transmit_filters(self):
        plan = BlockPlan(16, packet_size=2, block_packets=8)
        server = TransferServer(ObjectCodec(plan, code="rs"), bytes(16),
                                seed=1)
        channel = LossyChannel(BernoulliLoss(0.5), rng=2)
        survivors = list(channel.transmit(server.packets(200)))
        assert 0 < len(survivors) < 200
        assert channel.sent == 200
        assert channel.delivered == len(survivors)
