"""Cross-module integration: full pipelines exactly as a user runs them."""

import numpy as np
import pytest

from repro import (
    InterleavedCode,
    bytes_to_packets,
    cauchy_code,
    packets_to_bytes,
    tornado_a,
    tornado_b,
)
from repro.codes.registry import feed, incremental_decoder
from repro.transfer import TransferClient
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss, GilbertElliottLoss
from repro.net.traces import synthesize_mbone_traces
from repro.sim.overhead import ThresholdPool
from repro.sim.transfer import SlotWindow, packets_until_decode
from repro.transfer import BlockPlan, ObjectCodec, TransferServer
from repro.transfer.schedule import carousel_order


class TestFileRoundtrips:
    """bytes -> packets -> encode -> lossy channel -> decode -> bytes."""

    @pytest.mark.parametrize("factory", [tornado_a, tornado_b, cauchy_code],
                             ids=["tornado-a", "tornado-b", "cauchy"])
    def test_file_through_lossy_carousel(self, factory):
        data = np.random.default_rng(0).integers(
            0, 256, 40_000, dtype=np.uint8).tobytes()
        if factory is cauchy_code:
            # n = 2k > 256 routes this RS code to GF(2^16): packets are
            # viewed as 16-bit symbols on the byte stream.
            source = bytes_to_packets(data, 256, dtype=np.uint16)
            code = cauchy_code(source.shape[0])
        else:
            source = bytes_to_packets(data, 256)
            code = factory(source.shape[0], seed=1)
        encoding = code.encode(source)
        carousel = np.resize(carousel_order(code.n, 2), 10 * code.n)
        channel = LossyChannel(BernoulliLoss(0.3), rng=3)
        decoder = incremental_decoder(code, payload_size=encoding.shape[1])
        for index in channel.transmit(carousel.tolist()):
            feed(decoder, (index,), encoding[index][np.newaxis])
            if decoder.is_complete:
                break
        assert decoder.is_complete
        assert packets_to_bytes(decoder.source_data(), len(data)) == data

    def test_interleaved_file_roundtrip(self):
        data = bytes(range(256)) * 100
        source = bytes_to_packets(data, 128)
        code = InterleavedCode(source.shape[0], 20)
        encoding = code.encode(source)
        carousel = np.resize(carousel_order(code.n, 4), 50 * code.n)
        channel = LossyChannel(BernoulliLoss(0.2), rng=4)
        decoder = incremental_decoder(code, payload_size=encoding.shape[1])
        for index in channel.transmit(carousel.tolist()):
            feed(decoder, (index,), encoding[index][np.newaxis])
            if decoder.is_complete:
                break
        assert decoder.is_complete
        assert packets_to_bytes(decoder.source_data(), len(data)) == data


class TestWireFormat:
    def test_packets_survive_serialisation(self):
        """Headers and payloads cross a byte-level 'network' intact."""
        from repro.fountain.packets import EncodingPacket
        rng = np.random.default_rng(6)
        src = rng.integers(0, 256, size=(130, 64), dtype=np.uint8)
        codec = ObjectCodec(BlockPlan(src.size, 64, 130), code="tornado-a",
                            seed=5)
        server = TransferServer(codec, src.tobytes(), seed=7)
        client = TransferClient(codec)
        for packet in server.packets(codec.code_for(0).n):
            wire = packet.to_bytes()          # serialise
            restored = EncodingPacket.from_bytes(wire)  # deserialise
            if client.receive(restored):
                break
        assert client.is_complete
        assert np.array_equal(client.block_data(0), src)


class TestConsistencyAcrossPaths:
    def test_pool_simulation_agrees_with_direct_client(self):
        """The fast simulation path and the packet-level client agree on
        reception counts for identical loss processes (statistically)."""
        code = tornado_a(400, seed=8)
        pool = ThresholdPool.for_code(code, trials=40, rng=9)
        carousel = SlotWindow(code.k, code.k, "tornado-a")
        p = 0.3
        sim_totals = [
            packets_until_decode(carousel, int(t),
                                 LossyChannel(BernoulliLoss(p), 100 + i))
            for i, t in enumerate(pool.sample(40, rng=10))
        ]
        # Direct client runs over the real carousel.
        client_totals = []
        for trial in range(15):
            carousel = np.resize(carousel_order(code.n, trial), 10 * code.n)
            decoder = incremental_decoder(code)
            loss = BernoulliLoss(p)
            rng = np.random.default_rng(200 + trial)
            received = 0
            for index in carousel:
                if loss.losses(1, rng)[0]:
                    continue
                received += feed(decoder, (int(index),))
                if decoder.is_complete:
                    break
            assert decoder.is_complete
            client_totals.append(received)
        assert np.mean(client_totals) == pytest.approx(
            np.mean(sim_totals), rel=0.15)

    def test_bursty_and_uniform_loss_same_expected_efficiency(self):
        """Tornado efficiency is insensitive to burstiness at equal rate
        (the Section 6.4 takeaway)."""
        code = tornado_a(500, seed=11)
        pool = ThresholdPool.for_code(code, trials=30, rng=12)
        carousel = SlotWindow(code.k, code.k, "tornado-a")
        uniform = BernoulliLoss(0.2)
        bursty = GilbertElliottLoss.from_loss_and_burst(0.2, 8)
        t_uniform = np.mean([
            packets_until_decode(carousel, int(t), LossyChannel(uniform, i))
            for i, t in enumerate(pool.sample(30, rng=13))])
        t_bursty = np.mean([
            packets_until_decode(carousel, int(t), LossyChannel(bursty, i))
            for i, t in enumerate(pool.sample(30, rng=14))])
        assert t_bursty == pytest.approx(t_uniform, rel=0.1)


class TestFailureInjection:
    def test_client_survives_total_outage_then_recovers(self):
        code = tornado_a(200, seed=15)
        rng = np.random.default_rng(16)
        src = rng.integers(0, 256, size=(200, 16), dtype=np.uint8)
        encoding = code.encode(src)
        carousel = np.resize(carousel_order(code.n, 17), 3 * code.n)
        decoder = incremental_decoder(code, payload_size=16)
        # Outage: the first 1.5 cycles vanish entirely.
        for index in carousel[int(1.5 * code.n):].tolist():
            feed(decoder, (index,), encoding[index][np.newaxis])
            if decoder.is_complete:
                break
        assert decoder.is_complete
        assert np.array_equal(decoder.source_data(), src)

    def test_decoder_rejects_corrupt_index(self):
        code = tornado_a(100, seed=18)
        decoder = code.new_decoder()
        with pytest.raises(Exception):
            decoder.add_packet(code.n + 5)

    def test_trace_receiver_with_outages_completes(self):
        traces = synthesize_mbone_traces(6, 30_000, rng=19)
        worst = int(np.argmax(traces.loss_rates()))
        code = tornado_a(300, seed=20)
        pool = ThresholdPool.for_code(code, trials=10, rng=21)
        total = packets_until_decode(
            SlotWindow(code.k, code.k, "tornado-a"),
            int(pool.sample(1, rng=22)[0]),
            LossyChannel(traces.loss_model(worst), 23))
        assert total >= code.k
