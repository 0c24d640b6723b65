"""The adaptive control plane: feedback frames, policy, closed loops.

Covers the receiver→sender feedback wire format (property-tested round
trips), serial-gap loss estimation, the :class:`AdaptivePolicy` levers
(rate steps down on clean channels and up under fades), the live
schedule machinery (``weighted_slots`` / ``TransferServer.reweight`` /
``TokenBucket.set_rate``), the swarm simulator's vectorized closed
loop, and the UDP acceptance run where an adaptive sender finishes a
bursty transfer with fewer emissions than its open-loop provisioning.
"""

import dataclasses
import json
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import ParameterError, ProtocolError
from repro.net.loss import BernoulliLoss, GilbertElliottLoss
from repro.net.transport import (
    EMISSION_LIMIT_FACTOR,
    FRAME_DATA,
    MemoryTransport,
    TokenBucket,
    UdpSubscription,
    UdpTransport,
    pack_frame,
)
from repro.net.transport.base import FRAME_FEEDBACK
from repro.protocol import (
    AdaptivePolicy,
    FeedbackReport,
    LossEstimator,
    report_from_client,
)
from repro.protocol import feedback
from repro.protocol.adaptive import (
    MAX_RECEIVERS,
    MAX_SCALE,
    NOMINAL_LOSS,
    SCHEDULE_GAIN,
    STALE_AFTER,
)
from repro.protocol.feedback import MAX_LAGGING_BLOCKS
from repro.transfer import BlockPlan, ObjectCodec, TransferClient, TransferServer
from repro.transfer.schedule import weighted_slots


def _random_bytes(n, seed):
    return bytes(np.random.default_rng(seed).integers(0, 256, n,
                                                      dtype=np.uint8))


def _udp_available():
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


needs_udp = pytest.mark.skipif(
    not _udp_available(), reason="UDP loopback sockets unavailable")


# -- the wire frame ------------------------------------------------------------


reports = st.builds(
    FeedbackReport,
    receiver_id=st.integers(0, 0xFFFFFFFF),
    loss=st.floats(0.0, 1.0),
    progress=st.floats(0.0, 1.0),
    packets_used=st.integers(0, 0xFFFFFFFF),
    blocks_total=st.integers(1, 0xFFFF),
    complete=st.booleans(),
    receivers=st.integers(1, 0xFFFF),
    lagging=st.lists(
        st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)),
        max_size=MAX_LAGGING_BLOCKS).map(tuple),
)


class TestFeedbackFrame:
    @settings(max_examples=200, deadline=None)
    @given(report=reports)
    def test_round_trip(self, report):
        back = FeedbackReport.decode(report.encode())
        assert back.receiver_id == report.receiver_id
        assert back.packets_used == report.packets_used
        assert back.blocks_total == report.blocks_total
        assert back.complete == report.complete
        assert back.receivers == report.receivers
        assert back.lagging == report.lagging
        # fractions are quantised onto u16 — exact to half a step.
        assert abs(back.loss - report.loss) <= 0.5 / 0xFFFF
        assert abs(back.progress - report.progress) <= 0.5 / 0xFFFF

    @settings(max_examples=100, deadline=None)
    @given(report=reports, cut=st.integers(1, 12))
    def test_truncation_always_rejected(self, report, cut):
        body = report.encode()
        with pytest.raises(ProtocolError):
            FeedbackReport.decode(body[:-min(cut, len(body))])

    @settings(max_examples=200, deadline=None)
    @given(body=st.one_of(
        st.binary(max_size=64),
        # a real head with any lagging count, then any pairs
        st.tuples(reports, st.integers(0, 255), st.binary(max_size=48)).map(
            lambda t: t[0].encode()[:feedback._HEAD.size - 1] + bytes([t[1]])
            + t[2])))
    def test_any_bytes_decode_or_raise_a_protocol_error(self, body):
        """Hostile bytes: ``decode`` gives a report that survives its own
        round trip, or raises ``ProtocolError`` — never another
        exception."""
        try:
            report = FeedbackReport.decode(body)
        except ProtocolError:
            return
        assert len(report.lagging) <= MAX_LAGGING_BLOCKS
        assert FeedbackReport.decode(report.encode()) == report

    def test_too_many_lagging_blocks_rejected(self):
        pairs = tuple((b, 1) for b in range(MAX_LAGGING_BLOCKS + 1))
        with pytest.raises(ProtocolError, match="lagging"):
            FeedbackReport(receiver_id=1, lagging=pairs)

    def test_wrong_version_rejected(self):
        body = FeedbackReport(receiver_id=1).encode()
        with pytest.raises(ProtocolError, match="version"):
            FeedbackReport.decode(b"\x02" + body[1:])

    def test_trailing_garbage_rejected(self):
        body = FeedbackReport(receiver_id=1).encode()
        with pytest.raises(ProtocolError, match="trailing"):
            FeedbackReport.decode(body + b"\x00\x01")

    def test_report_from_client_names_worst_blocks_first(self):
        class FakeClient:
            progress = 0.5
            is_complete = False
            num_blocks = 4
            incomplete_blocks = [0, 2, 3]

            def block_min_additional(self, block):
                return {0: 3, 2: 9, 3: 1}[block]

        report = report_from_client(FakeClient(), receiver_id=7, loss=0.2)
        assert report.lagging == ((2, 9), (0, 3), (3, 1))
        assert report.blocks_total == 4
        assert report.receivers == 1
        assert not report.complete


# -- serial-gap loss estimation ------------------------------------------------


class TestLossEstimator:
    def _stream(self, loss, n=20_000, seed=3):
        rng = np.random.default_rng(seed)
        serials = np.arange(n)[rng.random(n) >= loss]
        return serials

    @pytest.mark.parametrize("loss", [0.05, 0.2, 0.4])
    def test_estimate_tracks_true_rate(self, loss):
        serials = self._stream(loss)
        est = LossEstimator()
        est.observe(serials.tolist())
        assert abs(est.loss - loss) < 0.05

    def test_chunking_does_not_bias(self, monkeypatch):
        """Ratio-of-sums: tiny per-call batches and one big batch of
        the same stream must agree (per-batch ratio averaging fails
        this badly)."""
        serials = self._stream(0.2)
        # negligible forgetting, so the only difference is batching
        monkeypatch.setattr(feedback, "LOSS_ALPHA", 1e-7)
        small, big = LossEstimator(), LossEstimator()
        big.observe(serials.tolist())
        for start in range(0, len(serials), 7):
            small.observe(serials[start:start + 7].tolist())
        assert abs(small.loss - big.loss) < 0.01

    def test_reordered_stragglers_ignored(self):
        est = LossEstimator()
        est.observe([0, 1, 2, 3, 9])
        before = est.loss
        est.observe([4, 5])  # arrived late, span already counted
        assert est.loss == before

    def test_empty_batch_is_a_noop(self):
        est = LossEstimator()
        assert est.observe([]) == 0.0

    @pytest.mark.parametrize("chunk", [1, 7, 500])
    def test_estimate_runs_on_across_the_serial_wrap(self, chunk):
        """Serials are the emission count mod 2**32: a stream that
        crosses the wrap must read as the same stream shifted, not
        freeze at the wrap (50 % loss after it, as in a long serve)."""
        rng = np.random.default_rng(11)
        n = 6_000
        kept = np.arange(n)[(np.arange(n) < n // 2)
                            | (rng.random(n) >= 0.5)]
        straight, wrapped = LossEstimator(), LossEstimator()
        offset = (1 << 32) - n // 2
        for start in range(0, len(kept), chunk):
            batch = kept[start:start + chunk]
            straight.observe(batch.tolist())
            wrapped.observe(((batch + offset) % (1 << 32)).tolist())
            assert wrapped.loss == pytest.approx(straight.loss, abs=1e-12)
        assert straight.loss > 0.3

    def test_first_batch_straddling_the_wrap(self):
        est = LossEstimator()
        est.observe([(1 << 32) - 2, (1 << 32) - 1, 1, 2])
        assert est.loss == pytest.approx(0.2)
        est.observe([3, 5])     # 6 of 8 serials, lightly forgotten
        assert est.loss == pytest.approx(0.25, abs=0.01)


# -- the policy ----------------------------------------------------------------


class TestAdaptivePolicy:
    def _feed(self, policy, losses, now=0.0, complete=False):
        for i, loss in enumerate(losses):
            policy.observe(FeedbackReport(receiver_id=i, loss=loss,
                                          complete=complete), now=now)

    def _scales(self, policy, steps, now=0.0):
        return [policy.decide([4], now=now).rate_scale
                for _ in range(steps)]

    def test_rate_steps_down_on_clean_channels(self):
        """Convergence: a clean population walks the scale down to
        ``(1 - NOMINAL_LOSS) / (1 - loss)`` (the sender stops
        over-provisioning)."""
        policy = AdaptivePolicy()
        self._feed(policy, [0.0, 0.01, 0.0])
        scales = self._scales(policy, 12)
        assert scales[0] < 1.0
        assert scales[-1] == pytest.approx((1 - NOMINAL_LOSS) / 0.99,
                                           abs=0.02)
        assert all(b <= a + 1e-9 for a, b in zip(scales, scales[1:]))

    def test_rate_steps_up_under_fades(self):
        policy = AdaptivePolicy()
        self._feed(policy, [0.4, 0.45, 0.5], now=0.0)
        scales = self._scales(policy, 12, now=0.0)
        assert scales[-1] > scales[0] > 1.0
        # converges to (1 - nominal) / (1 - quantile loss)
        assert scales[-1] == pytest.approx((1 - NOMINAL_LOSS) / 0.5,
                                           rel=0.05)

    def test_rate_scale_clamped(self):
        policy = AdaptivePolicy()
        self._feed(policy, [0.95])
        scales = self._scales(policy, 20)
        assert (1 - NOMINAL_LOSS) / 0.05 > MAX_SCALE  # the clamp binds
        assert max(scales) <= MAX_SCALE
        assert scales[-1] == pytest.approx(MAX_SCALE, rel=1e-4)

    def test_stale_reports_fade_out(self):
        policy = AdaptivePolicy()
        self._feed(policy, [0.5], now=0.0)
        assert policy.loss_estimate(now=STALE_AFTER / 2) == pytest.approx(0.5)
        assert policy.loss_estimate(now=STALE_AFTER) == pytest.approx(0.5)
        assert policy.loss_estimate(now=STALE_AFTER * 2) == 0.0

    def test_stale_reports_are_forgotten_not_just_skipped(self):
        """One entry per receiver id any frame ever claimed must not
        outlive ``STALE_AFTER``: the table is bounded by who is live."""
        policy = AdaptivePolicy()
        self._feed(policy, [0.3] * 10_000, now=0.0)
        assert len(policy._reports) == 10_000
        decision = policy.decide([4, 4], now=STALE_AFTER + 1.0)
        assert len(policy._reports) == 0
        assert decision == AdaptivePolicy().decide(
            [4, 4], now=STALE_AFTER + 1.0)

    def test_report_table_is_capped(self):
        """A flood of ids inside one staleness window keeps at most
        ``MAX_RECEIVERS`` entries, evicting the ones heard longest ago:
        the decision is that of a policy that heard only the freshest
        ``MAX_RECEIVERS``."""
        flood = 300
        reports = [FeedbackReport(
            receiver_id=i, loss=0.6 if i < flood else 0.05,
            blocks_total=3, lagging=((1, 9),) if i < flood else ((2, 4),))
            for i in range(MAX_RECEIVERS + flood)]
        flooded, fresh_only = AdaptivePolicy(), AdaptivePolicy()
        for report in reports:
            flooded.observe(report, now=1.0)
        for report in reports[flood:]:
            fresh_only.observe(report, now=1.0)
        assert len(flooded._reports) == MAX_RECEIVERS
        assert list(flooded._reports) == list(fresh_only._reports)
        assert flooded.decide([4, 4, 4], now=2.0) == fresh_only.decide(
            [4, 4, 4], now=2.0)
        assert flooded.loss_estimate(now=2.0) == pytest.approx(0.05)

    def test_a_report_refreshes_its_receiver_against_eviction(self):
        policy = AdaptivePolicy()
        for i in range(MAX_RECEIVERS):
            policy.observe(FeedbackReport(receiver_id=i), now=0.0)
        policy.observe(FeedbackReport(receiver_id=0, loss=0.5), now=1.0)
        policy.observe(FeedbackReport(receiver_id=MAX_RECEIVERS), now=1.0)
        assert len(policy._reports) == MAX_RECEIVERS
        assert 0 in policy._reports and 1 not in policy._reports

    def test_quantile_provisions_for_stragglers(self):
        """The worst decile is provisioned for, one straggler in twenty
        is not."""
        policy = AdaptivePolicy()
        self._feed(policy, [0.05] * 8 + [0.5] * 2)
        assert policy.loss_estimate() == pytest.approx(0.5)
        lone = AdaptivePolicy()
        self._feed(lone, [0.05] * 19 + [0.5])
        assert lone.loss_estimate() == pytest.approx(0.05)

    def test_receiver_count_hints_weight_the_quantile(self):
        policy = AdaptivePolicy()
        policy.observe(FeedbackReport(receiver_id=0, loss=0.01,
                                      receivers=1000))
        policy.observe(FeedbackReport(receiver_id=1, loss=0.5))
        assert policy.loss_estimate() == pytest.approx(0.01)

    def test_complete_receivers_leave_the_aggregate(self):
        """A receiver heard decoding and then complete leaves the
        aggregate and counts as complete; a complete report from an id
        never heard decoding counts as neither, so it ends nothing."""
        policy = AdaptivePolicy()
        self._feed(policy, [0.4])
        decision = policy.decide([4, 4])
        assert (decision.active, decision.complete) == (1, 0)
        self._feed(policy, [0.4], complete=True)
        assert policy.loss_estimate() == 0.0
        decision = policy.decide([4, 4])
        assert (decision.active, decision.complete) == (0, 1)
        assert decision.all_complete

        lone = AdaptivePolicy()
        self._feed(lone, [0.4], complete=True)
        assert lone.loss_estimate() == 0.0
        decision = lone.decide([4, 4])
        assert (decision.active, decision.complete) == (0, 0)
        assert not decision.all_complete
        # ... and its id stays unheard until it reports decoding
        self._feed(lone, [0.4], complete=True)
        assert not lone.decide([4, 4]).all_complete

    def test_block_shares_blend(self):
        assert SCHEDULE_GAIN == 0.5
        policy = AdaptivePolicy()
        base = policy.block_shares([0.0, 0.0], [4, 4])
        assert base == [0.5, 0.5]
        chased = policy.block_shares([0.0, 10.0], [4, 4])
        assert chased == pytest.approx([0.25, 0.75])
        assert sum(chased) == pytest.approx(1.0)

    def test_starved_block_keeps_half_its_proportional_weight(self):
        policy = AdaptivePolicy()
        policy.observe(FeedbackReport(receiver_id=0, loss=0.1,
                                      blocks_total=2, lagging=((1, 50),)))
        weights = policy.decide([4, 4]).weights
        assert weights[0] == pytest.approx(1.0 - SCHEDULE_GAIN)
        assert weights[0] >= 0.5
        assert weights[1] > 1.0

    @settings(max_examples=100, deadline=None)
    @given(lagging=st.lists(st.tuples(st.integers(0, 5),
                                      st.integers(0, 0xFFFF)),
                            max_size=MAX_LAGGING_BLOCKS).map(tuple),
           ks=st.lists(st.integers(1, 300), min_size=6, max_size=6))
    def test_every_weight_keeps_half_its_proportional_share(self, lagging,
                                                            ks):
        policy = AdaptivePolicy()
        policy.observe(FeedbackReport(receiver_id=0, blocks_total=6,
                                      lagging=lagging))
        for weight in policy.decide(ks).weights:
            assert weight >= (1.0 - SCHEDULE_GAIN) * (1 - 1e-12)

    def test_decide_filters_staleness_once(self, monkeypatch):
        policy = AdaptivePolicy()
        self._feed(policy, [0.2, 0.3])
        calls = []
        fresh = AdaptivePolicy._fresh
        monkeypatch.setattr(AdaptivePolicy, "_fresh",
                            lambda self, now: calls.append(now)
                            or fresh(self, now))
        policy.decide([4, 4], now=3.0)
        assert calls == [3.0]


# -- live schedule machinery ---------------------------------------------------


class TestWeightedSchedule:
    def test_all_ones_is_the_proportional_stripe(self):
        ks = [3, 5, 2]
        slots = weighted_slots(ks, [1.0, 1.0, 1.0])
        window = [next(slots) for _ in range(1000)]
        counts = np.bincount(window, minlength=3)
        for b, k in enumerate(ks):
            assert counts[b] == pytest.approx(1000 * k / sum(ks), abs=2)

    def test_weights_shift_the_mix(self):
        slots = weighted_slots([4, 4], [1.0, 3.0])
        window = [next(slots) for _ in range(800)]
        counts = np.bincount(window, minlength=2)
        assert counts[1] == pytest.approx(600, abs=4)

    def test_validation(self):
        with pytest.raises(ParameterError):
            weighted_slots([4, 4], [1.0])
        with pytest.raises(ParameterError):
            weighted_slots([4, 4], [1.0, 0.0])

    def test_server_reweight_mid_stream_stays_decodable(self):
        data = _random_bytes(40_000, seed=5)
        plan = BlockPlan(len(data), 512, 16)
        codec = ObjectCodec(plan, code="lt", seed=9)
        server = TransferServer(codec, data)
        client = TransferClient(codec)
        stream = server.packets()
        for _ in range(plan.total_packets // 2):
            client.receive(next(stream))
        server.reweight([2.0 if b % 2 else 0.5
                         for b in range(plan.num_blocks)])
        window = []
        while not client.is_complete:
            packet = next(stream)
            window.append(packet.block)
            client.receive(packet)
        assert client.object_data() == data
        counts = np.bincount(window, minlength=plan.num_blocks)
        assert counts[1] > counts[0]  # the reweight actually took

    def test_server_reweight_none_restores_configured_schedule(self):
        data = _random_bytes(8_000, seed=6)
        codec = ObjectCodec(BlockPlan(len(data), 512, 8), code="lt", seed=2)
        server = TransferServer(codec, data)
        server.reweight([9.0, 1.0])
        server.reweight(None)
        window = [next(server.packets()).block for _ in range(16)]
        assert sorted(set(window)) == [0, 1]
        assert np.bincount(window).tolist() == [8, 8]


class TestTokenBucketSetRate:
    def test_rate_change_takes_effect(self):
        bucket = TokenBucket(rate=100.0)
        bucket.set_rate(200.0)
        assert bucket.rate == 200.0

    def test_capacity_never_shrinks(self):
        bucket = TokenBucket(rate=10_000.0)
        cap = bucket.capacity
        bucket.set_rate(10.0)
        assert bucket.capacity >= cap

    def test_invalid_rate_rejected(self):
        bucket = TokenBucket(rate=100.0)
        with pytest.raises(ParameterError):
            bucket.set_rate(0.0)


# -- memory transport closed loop ----------------------------------------------


class TestMemoryAdaptive:
    def _session(self, seed=11):
        data = _random_bytes(40_000, seed=seed)
        return data, api.SenderSession(data, code="lt", seed=seed,
                                       block_size=16_384)

    def test_adaptive_serve_hears_shadow_reports(self):
        data, session = self._session()
        transport = MemoryTransport(loss=0.2, seed=7)
        subs = [transport.subscribe() for _ in range(3)]
        policy = AdaptivePolicy()
        seen = []
        report = session.serve(transport, policy=policy,
                               feedback=seen.append, report_every=64)
        assert report.emitted > 0
        assert policy.reports_seen >= len(seen) > 0
        assert {r.receiver_id for r in seen} == {0, 1, 2}
        for sub in subs:
            receiver = sub.receive()
            assert receiver.data() == data

    def test_reporting_receiver_enqueues_wire_frames(self):
        data, session = self._session(seed=13)
        transport = MemoryTransport(loss=0.1, seed=5)
        sub = transport.subscribe()
        session.serve(transport)
        receiver = api.ReceiverSession.from_subscription(
            sub, report=32, receiver_id=42)
        sub.feed(receiver)
        assert receiver.data() == data
        reports = transport.drain_feedback()
        assert reports, "reporting receiver never sent a frame"
        assert reports[-1].complete
        assert reports[-1].receiver_id == 42
        assert all(r.receiver_id == 42 for r in reports)

    def test_final_complete_report_sent_exactly_once(self):
        data, session = self._session(seed=17)
        transport = MemoryTransport(seed=3)
        sub = transport.subscribe()
        session.serve(transport)
        receiver = api.ReceiverSession.from_subscription(sub, report=True)
        sub.feed(receiver)
        complete = [r for r in transport.drain_feedback() if r.complete]
        assert len(complete) == 1
        assert receiver.maybe_report() is None  # already finalised

    def test_a_receiver_done_inside_one_interval_is_heard_decoding(self):
        """A session that completes inside its first report interval
        relays, before its complete report, the not-complete one it
        would have sent before its first packet — so a policy that
        counts a complete report only from a receiver it heard decoding
        reads this one as complete (without it the serve ran to its
        emission bound)."""
        data = _random_bytes(20_000, seed=23)
        sender = api.SenderSession(data, code="lt", seed=23)
        receiver = api.ReceiverSession(sender.manifest(), report=64)
        records = [p.to_bytes() for p in sender.packets(3 * sender.total_k)]
        assert receiver.receive_records(records)
        assert receiver.packets_used < 64
        reports = list(iter(receiver.maybe_report, None))
        assert [r.complete for r in reports] == [False, True]
        assert reports[0].progress == 0.0 and reports[0].lagging
        policy = AdaptivePolicy()
        for report in reports:
            policy.observe(report)
        decision = policy.decide(sender.codec.plan.block_ks)
        assert (decision.complete, decision.active) == (1, 0)

    def test_receiver_loss_estimate_rides_serials(self):
        data, session = self._session(seed=19)
        transport = MemoryTransport(loss=0.3, seed=29)
        sub = transport.subscribe()
        session.serve(transport)
        receiver = api.ReceiverSession.from_subscription(sub, report=True)
        sub.feed(receiver)
        assert receiver.is_complete
        assert abs(receiver.loss_estimate - 0.3) < 0.12


# -- the swarm closed loop -----------------------------------------------------


def _gilbert_scenario(code="lt:c=0.03,delta=0.5", receivers=600):
    from repro.sim.swarm import Scenario

    return Scenario(
        name="closed-loop-test",
        code=code,
        file_size=1 << 20,
        packet_size=1024,
        block_packets=128,
        seed=99,
        max_sweeps=40,
        threshold_trials=16,
        groups=(
            {"name": "steady", "count": receivers * 2 // 3,
             "loss": {"kind": "gilbert", "rate": [0.05, 0.15],
                      "burst": [4.0, 12.0]}},
            {"name": "fading", "count": receivers // 3,
             "loss": {"kind": "gilbert", "rate": [0.25, 0.4],
                      "burst": [12.0, 32.0]}},
        ),
    )


class TestSwarmClosedLoop:
    def test_closed_loop_beats_open_loop_tail(self):
        """The acceptance mechanism: deficit-driven slot reallocation
        cuts the p99 overhead on a bursty Gilbert population (rateless
        blocks have genuinely heterogeneous decode thresholds, so
        lagging blocks are population-wide and the schedule lever has
        something to chase)."""
        from repro.sim.swarm import SwarmSimulator

        scenario = _gilbert_scenario()
        open_loop = SwarmSimulator(scenario).run()
        closed = SwarmSimulator(scenario).run(policy=AdaptivePolicy())
        assert closed.completion_rate == 1.0
        assert (closed.overhead_percentile(99)
                < open_loop.overhead_percentile(99))
        assert (closed.overhead_percentile(50)
                <= open_loop.overhead_percentile(50) * 1.05)

    def test_closed_loop_deterministic(self):
        from repro.sim.swarm import SwarmSimulator

        scenario = _gilbert_scenario(receivers=200)
        a = SwarmSimulator(scenario).run(policy=AdaptivePolicy())
        b = SwarmSimulator(scenario).run(policy=AdaptivePolicy())
        np.testing.assert_array_equal(a.overhead, b.overhead)
        np.testing.assert_array_equal(a.completion_slot, b.completion_slot)

    def test_closed_loop_rejects_workers(self):
        from repro.sim.swarm import SwarmSimulator

        scenario = _gilbert_scenario(receivers=60)
        with pytest.raises(ParameterError, match="single-process"):
            SwarmSimulator(scenario).run(workers=2, policy=AdaptivePolicy())

    def test_closed_loop_spot_check_replays_the_dealt_slots(self):
        """The referee of a closed loop: replays reweighted with the
        run's per-sweep weights cross the slots it dealt, so on a code
        whose every pooled threshold is ``k_b`` (tornado-a at 128) they
        read the engine's overheads exactly."""
        from repro.sim.swarm import SwarmSimulator

        scenario = _gilbert_scenario(code="tornado-a", receivers=90)
        result = SwarmSimulator(scenario).run(spot_check=12,
                                              policy=AdaptivePolicy())
        spot = result.spot_check
        assert spot.replay_completed.all()
        np.testing.assert_array_equal(spot.structural_overhead,
                                      spot.replay_overhead)
        assert spot.agrees()

    def test_degenerate_thresholds_stay_near_proportional(self):
        """With identical per-block thresholds (tornado-a decodes at
        exactly k here) the deficit aggregate is symmetric — the closed
        loop must not hurt the population it cannot help."""
        from repro.sim.swarm import SwarmSimulator

        scenario = _gilbert_scenario(code="tornado-a", receivers=300)
        open_loop = SwarmSimulator(scenario).run()
        closed = SwarmSimulator(scenario).run(policy=AdaptivePolicy())
        assert closed.completion_rate == 1.0
        assert (closed.overhead_percentile(99)
                <= open_loop.overhead_percentile(99) * 1.1)


class TestLossPresets:
    def test_preset_expands_to_gilbert_spec(self):
        from repro.sim.swarm import LOSS_PRESETS, LossSpec

        for name in LOSS_PRESETS:
            spec = LossSpec.preset(name)
            assert spec.kind == "gilbert"

    def test_unknown_preset_rejected(self):
        from repro.sim.swarm import LossSpec

        with pytest.raises(ParameterError, match="preset"):
            LossSpec.preset("lte-underground")

    def test_scenario_groups_accept_preset_strings(self):
        from repro.sim.swarm import Scenario

        scenario = Scenario(
            name="preset-str", groups=(
                {"name": "ped", "count": 10, "loss": "gprs-pedestrian"},))
        assert scenario.groups[0].loss.kind == "gilbert"
        # round-trips through JSON in expanded (self-contained) form
        again = Scenario.from_json(scenario.to_json())
        assert again.groups[0].loss == scenario.groups[0].loss

    def test_with_loss_overrides_every_group(self):
        scenario = _gilbert_scenario(receivers=30)
        swapped = scenario.with_loss("wireless-testbed")
        assert all(g.loss == swapped.groups[0].loss
                   for g in swapped.groups)
        assert scenario.groups[0].loss != swapped.groups[0].loss

    def test_committed_bursty_wireless_scenario_loads(self):
        from repro.sim.swarm import Scenario, SwarmSimulator

        scenario = Scenario.load(
            "examples/scenarios/bursty_wireless.json").scaled(200)
        result = SwarmSimulator(scenario).run()
        assert result.completion_rate == 1.0


class TestSwarmCli:
    def test_adaptive_and_preset_flags(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "summary.json"
        code = main(["swarm", "run", "examples/scenarios/bursty_wireless.json",
                     "--receivers", "200", "--adaptive",
                     "--loss-preset", "gprs-vehicular",
                     "--json", str(out)])
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["completion_rate"] == 1.0

    def test_unknown_preset_fails_loudly(self, capsys):
        from repro.cli import main

        code = main(["swarm", "run",
                     "examples/scenarios/bursty_wireless.json",
                     "--receivers", "50", "--loss-preset", "marsnet"])
        assert code == 2
        assert "preset" in capsys.readouterr().err


# -- UDP closed loop -----------------------------------------------------------


@needs_udp
class TestUdpAdaptive:
    def _run(self, data, *, policy=None, report=None, count=None,
             loss=0.0, pace=None, seed=71, timeout=30.0):
        session = api.SenderSession(data, code="lt", seed=seed,
                                    block_size=128 * 1024,
                                    file_name="blob")
        sub = UdpSubscription("127.0.0.1:0", timeout=timeout)
        transport = UdpTransport([sub.address], pace=pace,
                                 loss=loss, seed=seed + 1,
                                 manifest_interval=32)
        holder = {}
        errors = []

        def drink():
            try:
                receiver = api.ReceiverSession.from_subscription(
                    sub, timeout=timeout, report=report)
                holder["receiver"] = receiver
                sub.feed(receiver, timeout=timeout)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=drink)
        thread.start()
        try:
            if policy is not None:
                serve_report = session.serve(transport, policy=policy)
            else:
                # open loop: no return path, so the whole provisioned
                # budget goes out regardless of receiver state.
                serve_report = session.serve(transport, count=count)
        finally:
            thread.join(timeout=timeout)
            sub.close()
        if errors:
            raise errors[0]
        return holder["receiver"], serve_report, session

    def test_adaptive_beats_open_loop_provisioning(self):
        """Acceptance: >= 1 MiB across real UDP loopback at 20% bursty
        (Gilbert-Elliott) loss — the reporting receiver's complete
        frame stops the adaptive sender, while the open-loop sender
        must blindly emit its whole loss-provisioned budget.

        Paced at 5 kpkt/s, a rate the receiver *thread* sustains while
        sharing the GIL with the sender even on a busy two-core box.
        The sender can reach a 25 kpkt/s pace since its send path went
        windowed (it used to be CPU-bound below it); at that rate the
        decoder falls behind, its complete-report arrives late, and the
        emission count measures thread scheduling, not the control
        loop (measured: 1470-1730 emitted at 5k with or without a
        competing process, 1600-3260 at 10k, 1860-2560 at 25k)."""
        data = _random_bytes(1_100_000, seed=37)
        bursty = GilbertElliottLoss.from_loss_and_burst(0.2, 8.0)
        policy = AdaptivePolicy()
        # the rate lever paces at pace * (1 - NOMINAL_LOSS) / (1 - loss):
        # this base keeps that at 5 kpkt/s * 0.8 / (1 - loss), the rate
        # of a policy provisioned for this channel's 20 %
        pace = 5_000 * (1 - 0.2) / (1 - NOMINAL_LOSS)
        receiver, adaptive_report, session = self._run(
            data, policy=policy, report=64, pace=pace,
            loss=bursty)
        assert receiver.is_complete
        assert receiver.data() == data
        assert adaptive_report.feedback_frames > 0
        # Open loop: no return path, so the sender provisions for the
        # nominal loss plus rateless margin and emits all of it.
        budget = int(session.total_k * 1.6 / (1.0 - 0.2))
        open_receiver, open_report, _ = self._run(
            data, count=budget, loss=bursty, seed=71)
        assert open_receiver.is_complete
        assert open_receiver.data() == data
        assert adaptive_report.emitted < open_report.emitted

    def test_a_receiver_done_inside_one_interval_stops_the_serve(self):
        """A 20 KB LT object (``total_k`` 20) finishes inside one
        ``report=64`` interval; its complete report, preceded by the
        not-complete one, stops the serve long before the emission
        bound it reached while it was the receiver's only frame."""
        data = _random_bytes(20_000, seed=61)
        receiver, report, session = self._run(
            data, policy=AdaptivePolicy(), report=64, pace=20_000)
        assert receiver.data() == data
        assert report.feedback_frames == 2
        assert report.emitted < EMISSION_LIMIT_FACTOR * session.total_k // 4

    def test_feedback_frames_ride_the_reply_socket(self):
        data = _random_bytes(150_000, seed=41)
        policy = AdaptivePolicy()
        seen = []
        session = api.SenderSession(data, code="lt", seed=43,
                                    block_size=64 * 1024,
                                    file_name="blob")
        sub = UdpSubscription("127.0.0.1:0", timeout=20.0)
        transport = UdpTransport([sub.address], pace=20_000,
                                 manifest_interval=32)
        holder = {}
        errors = []

        def drink():
            try:
                receiver = api.ReceiverSession.from_subscription(
                    sub, timeout=20.0, report=32)
                holder["receiver"] = receiver
                sub.feed(receiver, timeout=20.0)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=drink)
        thread.start()
        try:
            report = session.serve(transport, policy=policy,
                                   feedback=seen.append)
        finally:
            thread.join(timeout=20.0)
            sub.close()
        assert not errors, errors
        assert holder["receiver"].data() == data
        assert sub.feedback_sent > 0
        assert report.feedback_frames > 0
        assert seen and seen[-1].complete
        assert policy.reports_seen == report.feedback_frames

    def test_stray_datagrams_are_counted_and_survived(self):
        """Hostile chatter on the reply port is reported, never fatal.

        Three datagrams hit the sender's source port mid-serve: one that
        fails framing, a well-framed frame of the wrong type, and a
        feedback frame cut short.  The serve (listening: ``feedback=``
        is what makes it decode bodies) must run to its full count,
        hand no report to the callback, and surface all three in
        ``ServeReport.malformed_frames``.
        """
        count = 300
        session = api.SenderSession(_random_bytes(60_000, seed=47),
                                    code="lt", seed=47, file_name="blob")
        ear = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        ear.bind(("127.0.0.1", 0))
        ear.settimeout(20.0)
        transport = UdpTransport([ear.getsockname()], pace=1_500)
        seen, holder = [], {}

        def serve():
            holder["report"] = session.serve(transport, count=count,
                                             feedback=seen.append)

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            _, sender = ear.recvfrom(65536)
            whole = pack_frame(FRAME_FEEDBACK, FeedbackReport(
                receiver_id=1, loss=0.1, progress=0.5, packets_used=9,
                blocks_total=1).encode())
            for junk in (b"\x03\xff",                    # framing fails
                         pack_frame(FRAME_DATA, b"abc"),  # not feedback
                         pack_frame(FRAME_FEEDBACK, whole[3:-4])):
                ear.sendto(junk, sender)
        finally:
            thread.join(timeout=20.0)
            ear.close()
        assert not thread.is_alive()
        report = holder["report"]
        assert report.emitted == count
        assert report.feedback_frames == 0 and seen == []
        assert report.malformed_frames == 3

    def test_a_spoofed_complete_report_does_not_end_the_serve(self):
        """A complete report from an id the policy never heard decoding
        counts for nothing: one sent at the serve's start must not stop
        it before the real receiver (which reports decoding every 128
        packets, so not before the first decisions) finishes, and the
        real receiver's own complete report still does."""
        data = _random_bytes(400_000, seed=53)
        session = api.SenderSession(data, code="lt", seed=53,
                                    block_size=128 * 1024,
                                    file_name="blob")
        sub = UdpSubscription("127.0.0.1:0", timeout=20.0)
        ear = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        ear.bind(("127.0.0.1", 0))
        ear.settimeout(20.0)
        transport = UdpTransport([sub.address, ear.getsockname()],
                                 pace=4_000, manifest_interval=32)
        spoof = FeedbackReport(receiver_id=0xBAD, loss=0.0, progress=1.0,
                               packets_used=1, blocks_total=1,
                               complete=True)
        seen, holder, errors = [], {}, []

        def drink():
            try:
                receiver = api.ReceiverSession.from_subscription(
                    sub, timeout=20.0, report=128, receiver_id=7)
                holder["receiver"] = receiver
                sub.feed(receiver, timeout=20.0)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def spoofer():
            _, sender = ear.recvfrom(65536)
            ear.sendto(pack_frame(FRAME_FEEDBACK, spoof.encode()), sender)

        threads = [threading.Thread(target=drink),
                   threading.Thread(target=spoofer)]
        for thread in threads:
            thread.start()
        try:
            report = session.serve(transport, policy=AdaptivePolicy(),
                                   feedback=seen.append)
        finally:
            for thread in threads:
                thread.join(timeout=20.0)
            sub.close()
            ear.close()
        assert not errors, errors
        assert holder["receiver"].data() == data
        ids = [r.receiver_id for r in seen]
        assert ids[0] == 0xBAD and 7 in ids
        assert seen[-1].receiver_id == 7 and seen[-1].complete
        # the real completion stopped the serve, well inside its budget
        assert report.emitted < 3 * session.total_k
