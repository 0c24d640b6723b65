"""Regression tests for the odd-length packing bug class.

The PR 2 zero-length uint16 reshape bug showed that payload packing
breaks at the edges: widths that do not fill a symbol or uint64 lane,
empty inputs, and tail blocks shorter than a packet.  These tests pin
every ``bytes_to_packets``/payload-reshape call site at those edges so
the vectorized kernels (which lean on lane views) cannot regress them.
"""

import numpy as np
import pytest

from repro.codes.base import bytes_to_packets, packets_to_bytes
from repro.codes.registry import build_code
from repro.errors import ParameterError
from repro.fountain.packets import EncodingPacket
from repro.transfer import ObjectCodec, TransferClient, TransferServer
from repro.transfer.blocks import BlockPlan


class TestBytesToPackets:
    @pytest.mark.parametrize("packet_size", [1, 3, 7, 8, 13, 64])
    def test_roundtrip_with_padding(self, packet_size):
        data = bytes(range(256)) * 2 + b"tail"
        packets = bytes_to_packets(data, packet_size)
        assert packets.shape[1] == packet_size
        assert packets.shape[0] == -(-len(data) // packet_size)
        assert packets_to_bytes(packets, len(data)) == data
        # the padding itself must be zeros, not garbage
        flat = packets.reshape(-1)
        assert np.all(flat[len(data):] == 0)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_empty_input_keeps_width(self, dtype):
        packets = bytes_to_packets(b"", 8, dtype=dtype)
        assert packets.shape == (0, 8 // np.dtype(dtype).itemsize)
        assert packets_to_bytes(packets, 0) == b""

    def test_data_shorter_than_one_packet(self):
        packets = bytes_to_packets(b"ab", 16)
        assert packets.shape == (1, 16)
        assert packets_to_bytes(packets, 2) == b"ab"

    def test_odd_size_rejected_for_wide_symbols(self):
        with pytest.raises(ParameterError):
            bytes_to_packets(b"abcdef", 3, dtype=np.uint16)

    def test_nonpositive_packet_size_rejected(self):
        with pytest.raises(ParameterError):
            bytes_to_packets(b"abc", 0)


def _received(plan: BlockPlan, data: bytes) -> TransferClient:
    """A client that has decoded ``data`` off its lossless stream."""
    codec = ObjectCodec(plan, code="rs", seed=1)
    server = TransferServer(codec, data)
    client = TransferClient(codec)
    header = codec.header_size
    while not client.is_complete:
        blocks, indices, serials = server.draw_ids(codec.total_k)
        client.receive_window(blocks, indices, server.records(
            blocks, indices, serials)[:, header:])
    return client


class TestBlockPlanTails:
    @pytest.mark.parametrize("file_size", [1, 36, 37, 37 * 16, 37 * 16 + 1,
                                           37 * 16 * 3 - 5])
    def test_slice_reassemble_roundtrip(self, file_size):
        """Odd packet size, partial tail blocks, sub-packet files."""
        plan = BlockPlan(file_size, packet_size=37, block_packets=16)
        rng = np.random.default_rng(file_size)
        data = rng.integers(0, 256, size=file_size, dtype=np.uint8).tobytes()
        sources = [plan.source_block(data, b) for b in range(plan.num_blocks)]
        for block, src in enumerate(sources):
            assert src.shape == (plan.block_ks[block], 37)
        client = _received(plan, data)
        for block, src in enumerate(sources):
            np.testing.assert_array_equal(client.block_data(block), src)
        assert client.object_data() == data


class TestPacketSerialization:
    @pytest.mark.parametrize("payload_size", [0, 1, 7, 13])
    def test_wire_roundtrip_odd_payloads(self, payload_size):
        payload = np.arange(payload_size, dtype=np.uint8)
        for block, aware in [(None, False), (1, True)]:
            packet = EncodingPacket.stamp(payload, index=3, serial=2,
                                          block=block)
            parsed = EncodingPacket.from_bytes(packet.to_bytes(),
                                               block_aware=aware)
            assert parsed.index == 3
            assert np.array_equal(parsed.payload, payload)


class TestCodecOddWidths:
    """Encode/decode straight through each family at widths 1 and 13."""

    @pytest.mark.parametrize("spec,k", [("tornado-b", 24), ("rs", 8)])
    @pytest.mark.parametrize("width", [1, 13])
    def test_fixed_rate_roundtrip(self, spec, k, width):
        code = build_code(spec, k, seed=2)
        src = np.random.default_rng(2).integers(
            0, 256, size=(k, width), dtype=np.uint8)
        encoded = code.encode(src)
        received = {i: encoded[i] for i in range(k, min(2 * k, len(encoded)))}
        received.update({i: encoded[i] for i in range(k // 2)})
        if code.is_decodable(received):
            assert np.array_equal(code.decode(received), src)

    @pytest.mark.parametrize("width", [1, 13])
    def test_lt_droplets_match_single_and_batch(self, width):
        code = build_code("lt", 16, seed=4)
        src = np.random.default_rng(4).integers(
            0, 256, size=(16, width), dtype=np.uint8)
        encoder = code.encoder(src)
        batch = encoder.payload_block(range(40))
        for droplet_id in (0, 7, 39):
            assert np.array_equal(batch[droplet_id],
                                  encoder.droplet_payload(droplet_id))
