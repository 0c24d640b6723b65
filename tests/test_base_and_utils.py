"""Packetisation helpers, RNG plumbing, summary statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.base import (
    ReceivedPacket,
    as_packet_block,
    bytes_to_packets,
    packets_to_bytes,
)
from repro.codes.reed_solomon import cauchy_code
from repro.errors import DecodeFailure, ParameterError
from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.stats import summarize


class TestPacketisation:
    @given(data=st.binary(min_size=0, max_size=5000),
           packet_size=st.sampled_from([16, 64, 256, 1024]))
    @settings(max_examples=50)
    def test_roundtrip(self, data, packet_size):
        packets = bytes_to_packets(data, packet_size)
        assert packets.shape[1] == packet_size
        assert packets_to_bytes(packets, len(data)) == data

    def test_padding(self):
        packets = bytes_to_packets(b"abc", 8)
        assert packets.shape == (1, 8)
        assert bytes(packets[0]) == b"abc\0\0\0\0\0"

    def test_uint16_view(self):
        packets = bytes_to_packets(b"abcd" * 8, 16, dtype=np.uint16)
        assert packets.dtype == np.uint16
        assert packets.shape == (2, 8)
        assert packets_to_bytes(packets) == b"abcd" * 8

    def test_odd_packet_size_for_uint16_rejected(self):
        with pytest.raises(ParameterError):
            bytes_to_packets(b"ab", 3, dtype=np.uint16)

    def test_invalid_packet_size(self):
        with pytest.raises(ParameterError):
            bytes_to_packets(b"ab", 0)

    def test_as_packet_block_validates(self):
        with pytest.raises(ParameterError):
            as_packet_block(np.zeros((3, 4)), k=4)
        with pytest.raises(ParameterError):
            as_packet_block(np.zeros(12), k=3)


class TestErasureCodeBase:
    def test_decode_packets_wrapper(self):
        code = cauchy_code(4)
        rng = np.random.default_rng(0)
        src = rng.integers(0, 256, size=(4, 8), dtype=np.uint8)
        enc = code.encode(src)
        packets = [ReceivedPacket(i, enc[i]) for i in (0, 2, 5, 7)]
        assert np.array_equal(code.decode_packets(packets), src)

    def test_generic_packets_to_decode(self):
        code = cauchy_code(10)
        order = list(range(code.n))
        assert code.packets_to_decode(order) == 10

    def test_packets_to_decode_never_decodable(self):
        code = cauchy_code(10)
        with pytest.raises(DecodeFailure):
            code.packets_to_decode(list(range(5)))


class TestRng:
    def test_ensure_rng_from_int_deterministic(self):
        a = ensure_rng(5).integers(0, 100, 10)
        b = ensure_rng(5).integers(0, 100, 10)
        assert np.array_equal(a, b)

    def test_ensure_rng_passthrough(self):
        gen = np.random.default_rng(1)
        assert ensure_rng(gen) is gen

    def test_ensure_rng_rejects_strings(self):
        with pytest.raises(TypeError):
            ensure_rng("not a seed")

    def test_spawn_streams_independent_and_deterministic(self):
        a1 = spawn_rng(7, 1).integers(0, 1000, 5)
        a2 = spawn_rng(7, 1).integers(0, 1000, 5)
        b = spawn_rng(7, 2).integers(0, 1000, 5)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)


class TestStats:
    def test_summarize(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.count == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                           min_size=1, max_size=50))
    @settings(max_examples=40)
    def test_bounds_property(self, values):
        stats = summarize(values)
        tolerance = 1e-9 * (abs(stats.minimum) + abs(stats.maximum) + 1)
        assert stats.minimum - tolerance <= stats.mean \
            <= stats.maximum + tolerance
