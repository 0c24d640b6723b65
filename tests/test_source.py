"""Block-source emission, and encode-once forks."""

import numpy as np
import pytest

from repro.codes.registry import build_code, incremental_decoder
from repro.fountain import CarouselServer, RatelessServer
from repro.transfer import BlockPlan, ObjectCodec, TransferClient, TransferServer


def _source_block(k, payload, seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, (k, payload), dtype=np.uint8)


class TestProtocolConformance:
    def test_counted_emission_continues_across_calls(self):
        src = _source_block(16, 32)
        lt = build_code("lt", 16, seed=4)
        server = RatelessServer(lt, src)
        first = [p.index for p in server.packets(5)]
        second = [p.index for p in server.packets(5)]
        assert first == list(range(5))
        assert second == list(range(5, 10))
        server.reset()
        assert [p.index for p in server.packets(5)] == first

    def test_precomputed_encoding_skips_encode(self):
        code = build_code("tornado-a", 16, seed=5)
        src = _source_block(16, 32)
        encoding = code.encode(src)
        source = CarouselServer(code, encoding, seed=1)
        decoder = incremental_decoder(code, payload_size=32)
        for packet in source.packets():
            decoder.add_packet(packet.index, packet.payload)
            if decoder.is_complete:
                break
        assert np.array_equal(decoder.source_data(), src)


class TestTransferFork:
    @pytest.fixture
    def setup(self):
        data = bytes(_source_block(1, 40_000, seed=7)[0])
        plan = BlockPlan(len(data), packet_size=500, block_packets=20)
        codec = ObjectCodec(plan, code="tornado-b", seed=11)
        return data, codec

    def test_fork_shares_encodings(self, setup, monkeypatch):
        data, codec = setup
        calls = []
        original = ObjectCodec.block_encoder

        def counting(self, data, block):
            calls.append(block)
            return original(self, data, block)

        monkeypatch.setattr(ObjectCodec, "block_encoder", counting)
        server = TransferServer(codec, data, seed=1)
        encoded_once = len(calls)
        assert encoded_once == codec.num_blocks
        fork = server.fork(seed=2)
        assert len(calls) == encoded_once  # no re-encode
        assert fork is not server

    def test_fork_streams_decode_independently(self, setup):
        data, codec = setup
        server = TransferServer(codec, data, seed=1)
        fork = server.fork(seed=99)
        for source in (server, fork):
            client = TransferClient(codec)
            for packet in source.packets():
                if client.receive(packet):
                    break
            assert client.object_data() == data
        # Different transmission seeds: different carousel permutations.
        server.reset()
        fork.reset()
        first = [p.index for p in server.packets(30)]
        second = [p.index for p in fork.packets(30)]
        assert first != second

    def test_fork_rateless_shares_source_blocks(self):
        data = bytes(_source_block(1, 30_000, seed=3)[0])
        plan = BlockPlan(len(data), packet_size=500, block_packets=20)
        codec = ObjectCodec(plan, code="lt", seed=5)
        server = TransferServer(codec, data, seed=1)
        fork = server.fork()
        assert server._payloads is fork._payloads
        client = TransferClient(codec)
        for packet in fork.packets():
            if client.receive(packet):
                break
        assert client.object_data() == data
