"""Per-block emission from one server, and encode-once forks."""

import numpy as np
import pytest

from repro.codes.registry import block_seed, incremental_decoder
from repro.transfer import BlockPlan, ObjectCodec, TransferClient, TransferServer
from repro.transfer.schedule import carousel_order

from _oracles import single_block_server


def _source_block(k, payload, seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, (k, payload), dtype=np.uint8)


class TestProtocolConformance:
    def test_counted_emission_continues_across_calls(self):
        server = single_block_server("lt", _source_block(16, 32), seed=4)
        first = [p.index for p in server.packets(5)]
        second = [p.index for p in server.packets(5)]
        assert first == list(range(5))
        assert second == list(range(5, 10))
        server.reset()
        assert [p.index for p in server.packets(5)] == first

    def test_carousel_block_decodes(self):
        src = _source_block(16, 32)
        server = single_block_server("tornado-a", src, seed=5)
        decoder = incremental_decoder(server.codec.code_for(0),
                                      payload_size=32)
        for packet in server.packets():
            decoder.add_packet(packet.index, packet.payload)
            if decoder.is_complete:
                break
        assert np.array_equal(decoder.source_data(), src)

    @pytest.mark.parametrize("spec", ["lt", "rs"])
    def test_each_block_has_its_own_cursor(self, spec):
        """Emission t of block b is block b's own t-th: droplet t of a
        rateless block, slot t of a fixed-rate block's carousel — however
        the schedule stripes the blocks."""
        plan = BlockPlan(50 * 8, packet_size=8, block_packets=16)
        codec = ObjectCodec(plan, code=spec, seed=2)
        server = TransferServer(codec, seed=6)
        blocks, ids, _ = server.draw_ids(300)
        assert set(blocks.tolist()) == set(range(codec.num_blocks))
        for block in range(codec.num_blocks):
            mine = ids[blocks == block]
            if codec.is_rateless:
                want = np.arange(mine.size)
            else:
                want = np.resize(carousel_order(codec.code_for(block).n,
                                                block_seed(6, block)),
                                 mine.size)
            assert mine.tolist() == want.tolist()
        assert server._cursors.tolist() == np.bincount(
            blocks, minlength=codec.num_blocks).tolist()


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
