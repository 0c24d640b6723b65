"""Fountain layer: packet framing, carousel, client, metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.base import bytes_to_packets, packets_to_bytes
from repro.codes.lt import LTCode
from repro.codes.reed_solomon import cauchy_code
from repro.codes.tornado.presets import tornado_a
from repro.errors import DecodeFailure, ParameterError, ProtocolError
from repro.fountain.carousel import CarouselServer
from repro.fountain.client import ClientMode, FountainClient
from repro.fountain.metrics import ReceptionStats
from repro.fountain.packets import (
    HEADER_SIZE,
    SERIAL_MODULUS,
    EncodingPacket,
    HeaderSequencer,
    stamp_headers,
)
from repro.fountain.rateless import RatelessServer


_EMPTY = np.zeros(0, dtype=np.uint8)


class TestPackets:
    def test_header_is_12_bytes(self):
        assert HEADER_SIZE == 12
        assert len(EncodingPacket.stamp(_EMPTY, 1, 2, 3).to_bytes()) == 12

    @given(index=st.integers(0, 2**32 - 1), serial=st.integers(0, 2**32 - 1),
           group=st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_header_roundtrip(self, index, serial, group):
        record = EncodingPacket.stamp(_EMPTY, index, serial, group).to_bytes()
        parsed = EncodingPacket.from_bytes(record)
        assert (parsed.index, parsed.serial, parsed.block) == (index, serial, 0)
        assert int.from_bytes(record[8:12], "big") == group
        # a record of one is a row of the window writer's matrix
        row = np.empty((1, HEADER_SIZE), dtype=np.uint8)
        stamp_headers(row, HEADER_SIZE, index, serial, group, None)
        assert row.tobytes() == record

    def test_header_range_checks(self):
        for fields in [(-1, 0, 0), (2**32, 0, 0), (0, 2**32, 0), (0, 0, -1)]:
            with pytest.raises(ProtocolError):
                EncodingPacket.stamp(np.zeros(4, np.uint8), *fields)

    def test_unpack_short_buffer(self):
        with pytest.raises(ProtocolError):
            EncodingPacket.from_bytes(b"short")

    def test_packet_roundtrip(self):
        payload = np.arange(20, dtype=np.uint8)
        pkt = EncodingPacket.stamp(payload, 7, 9, 1)
        restored = EncodingPacket.from_bytes(pkt.to_bytes())
        assert restored.to_bytes() == pkt.to_bytes()
        assert (restored.index, restored.serial) == (7, 9)
        assert np.array_equal(restored.payload, payload)
        assert len(pkt.to_bytes()) == HEADER_SIZE + 20


class TestCarousel:
    def test_cycles_through_permutation(self):
        code = cauchy_code(8)
        rng = np.random.default_rng(0)
        enc = code.encode(rng.integers(0, 256, size=(8, 4), dtype=np.uint8))
        server = CarouselServer(code, enc, seed=1)
        indices = [p.index for p in server.packets(2 * code.n)]
        assert sorted(indices[:code.n]) == list(range(code.n))
        assert indices[:code.n] == indices[code.n:]

    def test_serials_increase(self):
        code = cauchy_code(4)
        enc = code.encode(np.zeros((4, 2), dtype=np.uint8))
        server = CarouselServer(code, enc, seed=2)
        serials = [p.serial for p in server.packets(10)]
        assert serials == list(range(10))

    def test_index_stream_stateless(self):
        code = cauchy_code(8)
        server = CarouselServer(code, seed=3)
        a = server.index_stream(20)
        b = server.index_stream(20)
        assert np.array_equal(a, b)

    def test_explicit_order_validated(self):
        code = cauchy_code(4)
        with pytest.raises(ParameterError):
            CarouselServer(code, order=[0, 1, 2])  # not a full permutation
        server = CarouselServer(code, order=list(range(code.n)))
        assert np.array_equal(server.index_stream(code.n),
                              np.arange(code.n))

    def test_index_only_cannot_emit_payloads(self):
        server = CarouselServer(cauchy_code(4), seed=4)
        with pytest.raises(ParameterError):
            next(server.packets(1))

    def test_reset(self):
        code = cauchy_code(4)
        enc = code.encode(np.zeros((4, 2), dtype=np.uint8))
        server = CarouselServer(code, enc, seed=5)
        first = [p.index for p in server.packets(3)]
        server.reset()
        assert [p.index for p in server.packets(3)] == first


class TestClient:
    def _run_client(self, mode, loss_seed=0):
        code = tornado_a(150, seed=6)
        rng = np.random.default_rng(7)
        src = rng.integers(0, 256, size=(150, 8), dtype=np.uint8)
        enc = code.encode(src)
        server = CarouselServer(code, enc, seed=8)
        client = FountainClient(code, mode=mode)
        loss_rng = np.random.default_rng(loss_seed)
        for packet in server.packets(20 * code.n):
            if loss_rng.random() < 0.3:
                continue
            if client.receive(packet):
                break
        return client, src

    @pytest.mark.parametrize("mode", [ClientMode.INCREMENTAL,
                                      ClientMode.STATISTICAL])
    def test_client_reconstructs(self, mode):
        client, src = self._run_client(mode)
        assert client.is_complete
        assert np.array_equal(client.source_data(), src)

    def test_statistical_makes_attempts(self):
        client, _ = self._run_client(ClientMode.STATISTICAL)
        assert client.decoder.decode_attempts >= 1

    def test_metrics_identity(self):
        client, _ = self._run_client(ClientMode.INCREMENTAL)
        stats = client.stats()
        assert stats.efficiency == pytest.approx(
            stats.coding_efficiency * stats.distinctness_efficiency)

    def test_incomplete_client_raises(self):
        code = tornado_a(150, seed=6)
        client = FountainClient(code)
        with pytest.raises(DecodeFailure):
            client.source_data()

    def test_rs_client(self):
        code = cauchy_code(20)
        rng = np.random.default_rng(9)
        src = rng.integers(0, 256, size=(20, 4), dtype=np.uint8)
        enc = code.encode(src)
        server = CarouselServer(code, enc, seed=10)
        client = FountainClient(code)
        for packet in server.packets(code.n):
            if client.receive(packet):
                break
        assert client.distinct_received == code.k  # MDS: exactly k
        assert np.array_equal(client.source_data(), src)


class TestBytesPacketsRoundtrip:
    @given(length=st.integers(0, 4000),
           packet_size=st.integers(1, 257))
    @settings(max_examples=80)
    def test_uint8_roundtrip(self, length, packet_size):
        data = bytes((i * 31 + 7) % 256 for i in range(length))
        packets = bytes_to_packets(data, packet_size)
        assert packets.shape == (-(-length // packet_size), packet_size)
        assert packets_to_bytes(packets, length) == data

    @given(length=st.integers(0, 2000),
           packet_words=st.integers(1, 64))
    @settings(max_examples=60)
    def test_uint16_roundtrip(self, length, packet_words):
        data = bytes((i * 17 + 3) % 256 for i in range(length))
        packet_size = 2 * packet_words
        packets = bytes_to_packets(data, packet_size, dtype=np.uint16)
        assert packets.dtype == np.uint16
        assert packets.shape == (-(-length // packet_size), packet_words)
        assert packets_to_bytes(packets, length) == data

    def test_zero_length_input(self):
        packets = bytes_to_packets(b"", 64)
        assert packets.shape == (0, 64)
        assert packets_to_bytes(packets, 0) == b""

    def test_odd_length_pads_tail_with_zeros(self):
        packets = bytes_to_packets(b"\xff" * 5, 4)
        assert packets.shape == (2, 4)
        assert packets[1].tolist() == [255, 0, 0, 0]

    def test_odd_packet_size_rejected_for_uint16(self):
        with pytest.raises(ParameterError):
            bytes_to_packets(b"abc", 3, dtype=np.uint16)


class TestHeaderSequencer:
    def _tiny_rateless(self, **kwargs):
        code = LTCode(8, seed=0)
        src = np.zeros((8, 4), dtype=np.uint8)
        return RatelessServer(code, src, **kwargs)

    def test_serial_wraparound(self):
        sequencer = HeaderSequencer(group=0,
                                    start_serial=SERIAL_MODULUS - 2)
        serials = [int(sequencer.take(1)[0]) for _ in range(4)]
        assert serials == [SERIAL_MODULUS - 2, SERIAL_MODULUS - 1, 0, 1]

    def test_start_serial_range_checked(self):
        with pytest.raises(ProtocolError):
            HeaderSequencer(start_serial=SERIAL_MODULUS)
        with pytest.raises(ProtocolError):
            HeaderSequencer(group=SERIAL_MODULUS)


class TestRatelessIdRange:
    def _server(self, **kwargs):
        code = LTCode(8, seed=0)
        src = np.zeros((8, 4), dtype=np.uint8)
        return RatelessServer(code, src, **kwargs)

    def test_exhaustion_fails_fast_with_clear_error(self):
        """Regression: droplet ids used to walk straight past the uint32
        header ceiling and die inside the header range check."""
        server = self._server(start=100, id_range=3)
        assert [p.index for p in server.packets(3)] == [100, 101, 102]
        with pytest.raises(ProtocolError, match="droplet id range exhausted"):
            next(server.packets(1))

    def test_header_ceiling_fails_before_overflow(self):
        server = self._server(start=SERIAL_MODULUS - 2)
        assert server.id_range == 2
        packets = list(server.packets(2))
        assert [p.index for p in packets] == [SERIAL_MODULUS - 2,
                                              SERIAL_MODULUS - 1]
        with pytest.raises(ProtocolError):
            next(server.packets(1))

    def test_range_overflowing_uint32_rejected_at_construction(self):
        with pytest.raises(ParameterError):
            self._server(start=SERIAL_MODULUS - 2, id_range=3)
        with pytest.raises(ParameterError):
            self._server(start=SERIAL_MODULUS)
        with pytest.raises(ParameterError):
            self._server(id_range=0)

    def test_wrap_cycles_back_to_start(self):
        server = self._server(start=50, id_range=4, wrap=True)
        ids = [p.index for p in server.packets(10)]
        assert ids == [50, 51, 52, 53] * 2 + [50, 51]
        assert server.ids_remaining == 4  # a wrapping server never runs dry

    def test_index_stream_respects_range(self):
        server = self._server(start=10, id_range=5)
        assert server.index_stream(5).tolist() == [10, 11, 12, 13, 14]
        with pytest.raises(ProtocolError):
            server.index_stream(6)
        wrapping = self._server(start=10, id_range=5, wrap=True)
        assert wrapping.index_stream(7).tolist() == [10, 11, 12, 13, 14,
                                                     10, 11]

    def test_ids_remaining_counts_down(self):
        server = self._server(start=0, id_range=10)
        assert server.ids_remaining == 10
        list(server.packets(4))
        assert server.ids_remaining == 6
        server.reset()
        assert server.ids_remaining == 10


class TestReceptionStats:
    def test_identity(self):
        stats = ReceptionStats(100, 110, 120)
        assert stats.efficiency == pytest.approx(100 / 120)
        assert stats.coding_efficiency == pytest.approx(100 / 110)
        assert stats.distinctness_efficiency == pytest.approx(110 / 120)
        assert stats.efficiency == pytest.approx(
            stats.coding_efficiency * stats.distinctness_efficiency)
        assert stats.duplicates == 10
        assert stats.reception_overhead == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ReceptionStats(0, 1, 1)
        with pytest.raises(ParameterError):
            ReceptionStats(10, 5, 4)

    @given(k=st.integers(1, 1000), distinct=st.integers(1, 2000),
           extra=st.integers(0, 500))
    @settings(max_examples=60)
    def test_identity_property(self, k, distinct, extra):
        stats = ReceptionStats(k, distinct, distinct + extra)
        assert stats.efficiency == pytest.approx(
            stats.coding_efficiency * stats.distinctness_efficiency)

    def test_impossible_counters_rejected(self):
        with pytest.raises(ParameterError):
            ReceptionStats(10, 0, 5)
