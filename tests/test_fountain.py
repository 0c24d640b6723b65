"""Fountain layer: packet framing, the carousel and rateless streams of a
single-block :class:`TransferServer`, the decoders a receiver feeds,
metrics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codes.base import bytes_to_packets, packets_to_bytes
from repro.codes.registry import (
    SetDecoder,
    block_seed,
    feed,
    incremental_decoder,
)
from repro.codes.tornado.presets import tornado_a
from repro.errors import DecodeFailure, ParameterError, ProtocolError
from repro.fountain.metrics import ReceptionStats
from repro.fountain.packets import (
    BLOCK_HEADER_SIZE,
    HEADER_SIZE,
    SERIAL_MODULUS,
    EncodingPacket,
    record_ids,
    stamp_headers,
)
from repro.transfer import TransferClient, TransferServer
from repro.transfer.schedule import carousel_order

from _oracles import make_source, single_block_server


_EMPTY = np.zeros(0, dtype=np.uint8)


def _server(spec, k, seed=0, data=True):
    return single_block_server(spec, make_source(k, 4, seed), seed, data)


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

    @settings(max_examples=200)
    @given(data=st.binary(max_size=40), block_aware=st.booleans())
    def test_any_bytes_parse_or_raise_a_protocol_error(self, data,
                                                       block_aware):
        """Hostile bytes: a record of any length either parses to its
        own bytes and the big-endian fields where the layout puts them,
        or is a :class:`ProtocolError` — never another exception."""
        header = BLOCK_HEADER_SIZE if block_aware else HEADER_SIZE
        try:
            packet = EncodingPacket.from_bytes(data, block_aware=block_aware)
        except ProtocolError:
            assert len(data) < header
            return
        field = [int.from_bytes(data[i:i + 4], "big") for i in (0, 4, 12)]
        assert packet.to_bytes() == data
        assert packet.payload.tobytes() == data[header:]
        assert (packet.index, packet.serial) == (field[0], field[1])
        assert packet.block == (field[2] if block_aware else 0)

    @settings(max_examples=200)
    @given(rows=st.integers(0, 4), width=st.integers(0, 24),
           header=st.sampled_from([HEADER_SIZE, BLOCK_HEADER_SIZE, 0, 13]),
           dtype=st.sampled_from([np.uint8, np.uint16, np.int64]),
           layout=st.sampled_from(["c", "fortran", "flat", "cube"]),
           seed=st.integers(0, 2 ** 16))
    @example(rows=3, width=13, header=BLOCK_HEADER_SIZE, dtype=np.uint8,
             layout="c", seed=0)
    def test_any_matrix_reads_or_raises_a_protocol_error(
            self, rows, width, header, dtype, layout, seed):
        """``record_ids`` on any array and header size: the per-row
        header fields, or a :class:`ProtocolError` (a uint8 matrix too
        narrow for its header used to escape as numpy's ``ValueError``).
        A matrix whose rows are strided reads the same as a C one."""
        matrix = np.random.default_rng(seed).integers(
            0, 256, (rows, width)).astype(dtype)
        if layout == "fortran":
            matrix = np.asfortranarray(matrix)
        elif layout == "flat":
            matrix = matrix.reshape(-1)
        elif layout == "cube":
            matrix = matrix[np.newaxis]
        try:
            blocks, indices, serials = record_ids(matrix, header)
        except ProtocolError:
            assert (header not in (HEADER_SIZE, BLOCK_HEADER_SIZE)
                    or dtype is not np.uint8 or matrix.ndim != 2
                    or width < header)
            return
        rows_bytes = [bytes(row) for row in matrix.tolist()]
        field = [[int.from_bytes(r[i:i + 4], "big") for r in rows_bytes]
                 for i in (0, 4, 12)]
        assert indices.tolist() == field[0]
        assert serials.tolist() == field[1]
        assert blocks.tolist() == (field[2] if header == BLOCK_HEADER_SIZE
                                   else [0] * rows)

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
        server = _server("rs", 8, seed=1)
        n = server.codec.code_for(0).n
        packets = list(server.packets(2 * n))
        indices = [p.index for p in packets]
        assert sorted(indices[:n]) == list(range(n))
        assert indices[:n] == indices[n:]
        assert indices[:n] == carousel_order(n, block_seed(1, 0)).tolist()
        assert {(p.header_size, p.block) for p in packets} == {(HEADER_SIZE,
                                                               0)}

    def test_serials_increase(self):
        server = _server("rs", 4, seed=2)
        serials = [p.serial for p in server.packets(10)]
        assert serials == list(range(10))

    def test_index_stream_stateless(self):
        """The structural stream is a pure function of the seed: two
        servers, a reset, and the data-bearing server draw one order."""
        server = _server("rs", 8, seed=3, data=False)
        first = server.draw_ids(20)[1]
        assert np.array_equal(_server("rs", 8, seed=3, data=False)
                              .draw_ids(20)[1], first)
        server.reset()
        assert np.array_equal(server.draw_ids(20)[1], first)
        assert [p.index for p in _server("rs", 8, seed=3).packets(20)] == (
            first.tolist())

    def test_carousel_order_is_a_seeded_permutation(self):
        n = 16
        order = carousel_order(n, 7)
        assert sorted(order.tolist()) == list(range(n))
        assert order.dtype == np.int64
        assert np.array_equal(carousel_order(n, 7), order)
        assert not np.array_equal(carousel_order(n, 8), order)
        # each block of a server permutes under its own seed
        assert not np.array_equal(carousel_order(n, block_seed(7, 0)),
                                  carousel_order(n, block_seed(7, 1)))

    def test_structural_server_cannot_emit_payloads(self):
        server = _server("rs", 4, seed=4, data=False)
        with pytest.raises(ParameterError):
            next(server.packets(1))

    def test_reset(self):
        server = _server("rs", 4, seed=5)
        first = [p.index for p in server.packets(3)]
        server.reset()
        assert [p.index for p in server.packets(3)] == first


class TestClient:
    """Paper §7.2's two client protocols, one packet fed at a time."""

    def _run_client(self, mode, loss_seed=0):
        code = tornado_a(150, seed=6)
        rng = np.random.default_rng(7)
        src = rng.integers(0, 256, size=(150, 8), dtype=np.uint8)
        enc = code.encode(src)
        order = carousel_order(code.n, 8)
        decoder = (incremental_decoder(code, payload_size=8)
                   if mode == "incremental" else
                   SetDecoder(code, payload_size=8,
                              first_attempt=math.ceil(1.05 * code.k),
                              retry_step=8))
        loss_rng = np.random.default_rng(loss_seed)
        for index in np.resize(order, 20 * code.n).tolist():
            if loss_rng.random() < 0.3:
                continue
            feed(decoder, (index,), enc[index][np.newaxis])
            if decoder.is_complete:
                break
        return decoder, src

    @pytest.mark.parametrize("mode", ["incremental", "statistical"])
    def test_client_reconstructs(self, mode):
        decoder, src = self._run_client(mode)
        assert decoder.is_complete
        assert np.array_equal(decoder.source_data(), src)

    def test_statistical_makes_attempts(self):
        decoder, _ = self._run_client("statistical")
        assert decoder.decode_attempts >= 1

    def test_metrics_identity(self):
        decoder, _ = self._run_client("incremental")
        stats = ReceptionStats.of_decoder(150, decoder)
        assert stats.efficiency == pytest.approx(
            stats.coding_efficiency * stats.distinctness_efficiency)

    def test_incomplete_client_raises(self):
        code = tornado_a(150, seed=6)
        decoder = incremental_decoder(code, payload_size=8)
        with pytest.raises(DecodeFailure):
            decoder.source_data()

    def test_rs_client(self):
        server = _server("rs", 20, seed=10)
        client = TransferClient(server.codec)
        for packet in server.packets(server.codec.code_for(0).n):
            if client.receive(packet):
                break
        assert client.stats().distinct_received == 20  # MDS: exactly k
        assert np.array_equal(client.block_data(0),
                              server.codec.source_block(server._data, 0))


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


class TestHeaderCeilings:
    """Every header field is a uint32: a rateless block's droplet ids
    stop at ``2**32 - 1``, serials wrap, and a group must fit."""

    def test_droplet_ids_stop_below_2_to_the_32(self):
        server = _server("lt", 8)
        server._cursors[0] = SERIAL_MODULUS - 2
        stream = server.packets()
        got = [next(stream) for _ in range(2)]
        assert [p.index for p in got] == [SERIAL_MODULUS - 2,
                                          SERIAL_MODULUS - 1]
        encoder = server.codec.code_for(0).encoder(
            server.codec.source_block(server._data, 0))
        assert (got[-1].payload.tobytes()
                == encoder.droplet_payload(SERIAL_MODULUS - 1).tobytes())
        with pytest.raises(ProtocolError, match="droplet ids exhausted"):
            next(stream)
        with pytest.raises(ProtocolError, match="droplet ids exhausted"):
            server.draw_ids(1)

    def test_exhausted_draw_moves_no_cursor(self):
        """The ceiling raises before the cursor moves: the ids below it
        are still there to draw, and serials carry on from them."""
        server = _server("lt", 8)
        server._cursors[0] = SERIAL_MODULUS - 2
        with pytest.raises(ProtocolError, match="droplet ids exhausted"):
            server.draw_ids(3)
        assert server._cursors.tolist() == [SERIAL_MODULUS - 2]
        _, ids, _ = server.draw_ids(2)
        assert ids.tolist() == [SERIAL_MODULUS - 2, SERIAL_MODULUS - 1]
        assert server._cursors.tolist() == [SERIAL_MODULUS]

    def test_serials_wrap_to_zero(self):
        server = _server("rs", 4)
        server._cursors[0] = SERIAL_MODULUS - 1
        serials = [p.serial for p in server.packets(3)]
        assert serials == [SERIAL_MODULUS - 1, 0, 1]

    def test_group_range_checked(self):
        codec = _server("rs", 4).codec
        for group in (SERIAL_MODULUS, -1):
            with pytest.raises(ProtocolError):
                TransferServer(codec, group=group)
        record = TransferServer(codec, bytes(16),
                                group=SERIAL_MODULUS - 1).record_window(1)
        assert int.from_bytes(record[0, 8:12].tobytes(), "big") == (
            SERIAL_MODULUS - 1)


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
