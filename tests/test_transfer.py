"""Block-segmented bulk transfer: plan, codec, schedules, server, client,
sim scenario, and the `repro send`/`repro recv` CLI end to end."""

import itertools
import json
import pathlib

import numpy as np
import pytest

from repro.errors import DecodeFailure, ParameterError, ProtocolError
from repro.fountain.packets import (
    BLOCK_HEADER_SIZE,
    HEADER_SIZE,
    EncodingPacket,
    record_ids,
)
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss
from repro.sim.transfer import compare_schedules, simulate_transfer
from repro.transfer import (
    BlockPlan,
    ObjectCodec,
    TransferClient,
    TransferServer,
    block_seed,
    interleaved_slots,
    make_schedule,
    sequential_slots,
)


def _random_bytes(size, seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8).tobytes()


class TestBlockPlan:
    def test_even_partition(self):
        plan = BlockPlan(file_size=4096, packet_size=64, block_packets=16)
        assert plan.num_blocks == 4
        assert plan.block_ks == [16, 16, 16, 16]
        assert plan.total_packets == 64
        specs = [plan.spec(b) for b in range(plan.num_blocks)]
        assert [s.byte_offset for s in specs] == [0, 1024, 2048, 3072]
        assert all(s.byte_length == 1024 for s in specs)

    def test_uneven_tail(self):
        plan = BlockPlan(file_size=5000, packet_size=64, block_packets=16)
        assert plan.num_blocks == 5
        # 5000 bytes = 4 full 1024-byte blocks + 904-byte tail (15 packets,
        # last one partially filled).
        assert plan.block_ks == [16, 16, 16, 16, 15]
        assert plan.spec(4).byte_length == 5000 - 4 * 1024
        assert plan.spec(4).byte_end == 5000

    def test_single_block_plan(self):
        plan = BlockPlan(file_size=100, packet_size=64, block_packets=16)
        assert plan.num_blocks == 1
        assert plan.block_ks == [2]

    def test_from_block_size(self):
        plan = BlockPlan.from_block_size(10_000, packet_size=100,
                                         block_size=1000)
        assert plan.block_packets == 10
        with pytest.raises(ParameterError):
            BlockPlan.from_block_size(10_000, packet_size=100, block_size=50)

    def test_validation(self):
        with pytest.raises(ParameterError):
            BlockPlan(0, 64, 16)
        with pytest.raises(ParameterError):
            BlockPlan(100, 0, 16)
        with pytest.raises(ParameterError):
            BlockPlan(100, 64, 0)
        plan = BlockPlan(100, 64, 4)
        with pytest.raises(ParameterError):
            plan.spec(1)

    def test_slice_and_reassemble_roundtrip(self):
        data = _random_bytes(5000, seed=1)
        plan = BlockPlan(len(data), packet_size=64, block_packets=16)
        assert b"".join(plan.slice_bytes(data, b)
                        for b in range(plan.num_blocks)) == data
        sources = [plan.source_block(data, b)
                   for b in range(plan.num_blocks)]
        assert all(src.shape == (plan.spec(b).k, 64)
                   for b, src in enumerate(sources))
        # each block's rows are its exact bytes, the tail packet padded
        assert all(src.tobytes() == plan.slice_bytes(data, b).ljust(
            src.size, b"\0") for b, src in enumerate(sources))


class TestObjectCodec:
    def test_block_seeds_distinct(self):
        seeds = {block_seed(7, b) for b in range(1000)}
        assert len(seeds) == 1000

    def test_per_block_codes_match_tail(self):
        plan = BlockPlan(5000, 64, 16)
        codec = ObjectCodec(plan, code="tornado-b", seed=3)
        for b in range(plan.num_blocks):
            assert codec.code_for(b).k == plan.spec(b).k
        # cached: same object back
        assert codec.code_for(0) is codec.code_for(0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ParameterError):
            ObjectCodec(BlockPlan(100, 10, 4), code="raptorq")

    def test_family_kwarg_removed(self):
        """The pre-registry alias finished its deprecation cycle: the
        modern code= kwarg is the only spelling left."""
        with pytest.raises(TypeError):
            ObjectCodec(BlockPlan(100, 10, 4), family="raptor")

    def test_family_alias_tables_removed(self):
        """CODE_FAMILIES / RATELESS_FAMILIES shims are gone; the
        registry is the one lookup surface."""
        import repro.transfer as transfer
        import repro.transfer.codec as codec_module

        for module in (transfer, codec_module):
            with pytest.raises(AttributeError):
                module.CODE_FAMILIES
            with pytest.raises(AttributeError):
                module.RATELESS_FAMILIES

    def test_rateless_has_no_finite_encoding(self):
        codec = ObjectCodec(BlockPlan(1000, 10, 10), code="lt")
        assert codec.is_rateless
        with pytest.raises(ParameterError):
            codec.encode_block(_random_bytes(1000, 3), 0)

    def test_manifest_roundtrip(self):
        plan = BlockPlan(5000, 64, 16)
        codec = ObjectCodec(plan, code="lt", seed=11)
        manifest = codec.to_manifest(file_name="x.bin")
        assert manifest["block_header"] is True
        rebuilt = ObjectCodec.from_manifest(json.loads(json.dumps(manifest)))
        assert rebuilt.family == "lt"
        assert rebuilt.seed == 11
        assert rebuilt.plan.block_ks == plan.block_ks
        assert rebuilt.plan.file_size == plan.file_size

    def test_manifest_kind_checked(self):
        with pytest.raises(ProtocolError):
            ObjectCodec.from_manifest({"kind": "shards"})

    def test_wide_symbol_rs_blocks_fail_fast(self):
        """rs blocks beyond 128 packets need GF(2^16) symbols the byte
        wire cannot carry; the codec must refuse instead of writing a
        corrupt stream (sender and payload-mode receiver paths)."""
        data = _random_bytes(200 * 100, 7)
        plan = BlockPlan(len(data), 100, 200)  # one block, k=200, n=400
        codec = ObjectCodec(plan, code="rs", seed=1)
        with pytest.raises(ParameterError, match="wider than one byte"):
            codec.encode_block(data, 0)
        client = TransferClient(codec)  # payload mode
        with pytest.raises(ParameterError, match="wider than one byte"):
            client.receive_index(0, 0, np.zeros(100, dtype=np.uint8))
        # Structural (index-only) simulation stays allowed.
        shadow = TransferClient(codec, payload_size=None)
        assert shadow.receive_index(0, 0) is False

    def test_narrow_rs_blocks_unaffected_by_wire_guard(self):
        plan = BlockPlan(1000, 100, 10)  # k=10 per block, GF(2^8)
        codec = ObjectCodec(plan, code="rs", seed=1)
        codec.check_wire_dtype(0)  # does not raise


class TestSchedules:
    def test_sequential_visits_blocks_in_order(self):
        slots = list(itertools.islice(sequential_slots([2, 3, 1]), 12))
        assert slots == [0, 0, 1, 1, 1, 2] * 2

    def test_interleave_is_proportional(self):
        ks = [100, 50, 25]
        window = list(itertools.islice(interleaved_slots(ks), 175))
        counts = [window.count(b) for b in range(3)]
        assert counts == ks  # one full revolution is exactly proportional
        # and within any prefix no block is more than ~1 packet off share
        emitted = [0, 0, 0]
        for t, b in enumerate(window, start=1):
            emitted[b] += 1
            for i, k in enumerate(ks):
                assert abs(emitted[i] - t * k / 175) <= 1.5

    def test_interleave_single_block(self):
        assert list(itertools.islice(interleaved_slots([4]), 5)) == [0] * 5

    def test_unknown_schedule(self):
        with pytest.raises(ParameterError):
            make_schedule("zigzag", [1, 2])
        with pytest.raises(ParameterError):
            make_schedule("interleave", [])


class TestBlockHeader:
    _EMPTY = np.zeros(0, dtype=np.uint8)

    def test_roundtrip_and_size(self):
        packed = EncodingPacket.stamp(self._EMPTY, 7, 9, group=1,
                                      block=42).to_bytes()
        assert len(packed) == BLOCK_HEADER_SIZE == 16
        ids = record_ids(np.frombuffer(packed, np.uint8)[None],
                         BLOCK_HEADER_SIZE)
        assert [int(column[0]) for column in ids] == [42, 7, 9]
        assert int.from_bytes(packed[8:12], "big") == 1

    def test_legacy_prefix_byte_compatible(self):
        packed = EncodingPacket.stamp(self._EMPTY, 7, 9, 1,
                                      block=42).to_bytes()
        assert packed[:HEADER_SIZE] \
            == EncodingPacket.stamp(self._EMPTY, 7, 9, 1).to_bytes()
        # a legacy parser reading a block header sees the right fields
        legacy = EncodingPacket.from_bytes(packed)
        assert (legacy.index, legacy.serial, legacy.block) == (7, 9, 0)
        assert int.from_bytes(legacy.to_bytes()[8:12], "big") == 1

    def test_block_field_range_checked(self):
        with pytest.raises(ProtocolError):
            EncodingPacket.stamp(self._EMPTY, 0, 0, 0, block=2 ** 32)
        with pytest.raises(ProtocolError):
            EncodingPacket.from_bytes(b"\0" * 15, block_aware=True)

    def test_packet_roundtrip_block_aware(self):
        payload = np.arange(20, dtype=np.uint8)
        pkt = EncodingPacket.stamp(payload, 3, 4, 0, block=5)
        assert pkt.block == 5
        assert len(pkt.to_bytes()) == BLOCK_HEADER_SIZE + 20
        restored = EncodingPacket.from_bytes(pkt.to_bytes(), block_aware=True)
        assert restored.to_bytes() == pkt.to_bytes()
        assert (restored.block, restored.index, restored.serial) == (5, 3, 4)
        assert np.array_equal(restored.payload, payload)

    def test_legacy_header_reports_block_zero(self):
        pkt = EncodingPacket.stamp(np.zeros(4, np.uint8), 3, 4, 0)
        assert pkt.block == 0
        assert len(pkt.to_bytes()) == HEADER_SIZE + 4


class TestTransferEndToEnd:
    @pytest.mark.parametrize("family", ["tornado-b", "lt", "rs"])
    def test_lossy_roundtrip(self, family):
        data = _random_bytes(40_000, seed=4)
        plan = BlockPlan(len(data), packet_size=256, block_packets=32)
        codec = ObjectCodec(plan, code=family, seed=5)
        server = TransferServer(codec, data, seed=6)
        client = TransferClient(codec)
        channel = LossyChannel(BernoulliLoss(0.25), rng=7)
        for packet in channel.transmit(server.packets(100 * codec.total_k)):
            if client.receive(packet):
                break
        assert client.is_complete
        assert client.object_data() == data
        assert client.blocks_complete == plan.num_blocks == 5
        assert client.progress == 1.0

    def test_multi_block_stream_uses_block_headers(self):
        data = _random_bytes(4000, seed=8)
        codec = ObjectCodec(BlockPlan(len(data), 100, 10), seed=9)
        server = TransferServer(codec, data)
        packets = list(server.packets(10))
        assert all(p.header_size == BLOCK_HEADER_SIZE for p in packets)
        # serials strictly monotone across the whole striped stream
        assert [p.serial for p in packets] == list(range(10))
        assert {p.block for p in packets} == set(range(codec.num_blocks))

    def test_single_block_stream_stays_legacy(self):
        data = _random_bytes(900, seed=10)
        codec = ObjectCodec(BlockPlan(len(data), 100, 64), seed=9)
        server = TransferServer(codec, data)
        packet = next(server.packets(1))
        assert packet.header_size == HEADER_SIZE
        assert len(packet.to_bytes()) == HEADER_SIZE + 100

    def test_server_validates_object_size(self):
        codec = ObjectCodec(BlockPlan(1000, 100, 4))
        with pytest.raises(ParameterError):
            TransferServer(codec, b"short")

    def test_server_reset_replays_stream(self):
        data = _random_bytes(4000, seed=12)
        codec = ObjectCodec(BlockPlan(len(data), 100, 10), seed=13)
        server = TransferServer(codec, data)
        first = [(p.block, p.index, p.serial)
                 for p in server.packets(20)]
        server.reset()
        again = [(p.block, p.index, p.serial)
                 for p in server.packets(20)]
        assert first == again

    def test_client_rejects_alien_block(self):
        codec = ObjectCodec(BlockPlan(1000, 100, 4))
        client = TransferClient(codec)
        with pytest.raises(ProtocolError):
            client.receive_index(block=99, index=0)

    def test_object_data_before_completion_raises(self):
        codec = ObjectCodec(BlockPlan(1000, 100, 4))
        client = TransferClient(codec)
        with pytest.raises(DecodeFailure):
            client.object_data()

    def test_per_block_and_aggregate_stats(self):
        data = _random_bytes(8000, seed=14)
        codec = ObjectCodec(BlockPlan(len(data), 100, 20), seed=15)
        server = TransferServer(codec, data)
        client = TransferClient(codec)
        for packet in server.packets(50 * codec.total_k):
            if client.receive(packet):
                break
        stats = client.stats()
        assert stats.source_packets == codec.total_k == 80
        per_block = [client.block_stats(b) for b in range(codec.num_blocks)]
        assert all(s is not None for s in per_block)
        assert sum(s.total_received for s in per_block) == stats.total_received


class TestTransferSim:
    def test_payload_run_verifies_bytes(self):
        result = simulate_transfer(30_000, packet_size=256, block_packets=32,
                                   family="tornado-b", loss=0.15, seed=21)
        assert result.verified
        assert result.num_blocks == 4
        assert result.stats.total_received <= result.packets_sent
        assert result.stats.reception_overhead >= 0.0

    def test_structural_matches_geometry(self):
        result = simulate_transfer(200_000, packet_size=1000,
                                   block_packets=50, family="lt",
                                   loss=0.1, seed=22, payloads=False)
        assert not result.verified
        assert result.stats.source_packets == 200
        assert result.stats.distinct_received >= 200

    def test_interleave_beats_sequential(self):
        out = compare_schedules(400_000, packet_size=1000, block_packets=50,
                                family="tornado-b", loss=0.1, seed=23)
        assert (out["interleave"].stats.total_received
                < out["sequential"].stats.total_received)


class TestTransferCli:
    @pytest.mark.parametrize("family", ["tornado-b", "lt"])
    def test_send_recv_megabyte_over_bernoulli_loss(self, tmp_path, family):
        """Acceptance: >= 1 MiB, 20% Bernoulli loss, byte-exact both families."""
        from repro.cli import main

        blob = _random_bytes(1_100_000, seed=31)
        src = tmp_path / "big.bin"
        src.write_bytes(blob)
        out_dir = tmp_path / f"stream-{family}"
        dest = tmp_path / f"back-{family}.bin"
        assert main(["send", str(src), str(out_dir), "--code", family,
                     "--loss", "0.2", "--block-size", str(256 * 1024),
                     "--extra", "8", "--seed", "5"]) == 0
        assert (out_dir / "stream.pkt").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["kind"] == "transfer"
        assert manifest["code"] == family
        assert manifest["num_blocks"] == 5
        assert main(["recv", str(out_dir), str(dest)]) == 0
        assert dest.read_bytes() == blob

    def test_recv_rejects_shard_directories(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "manifest.json").write_text(json.dumps({"code": "lt"}))
        assert main(["recv", str(tmp_path), str(tmp_path / "x")]) == 2
        assert "repro send" in capsys.readouterr().err

    def test_recv_fails_cleanly_with_too_few_survivors(self, tmp_path,
                                                       capsys):
        from repro.cli import main

        src = tmp_path / "f.bin"
        src.write_bytes(_random_bytes(60_000, seed=34))
        out_dir = tmp_path / "out"
        assert main(["send", str(src), str(out_dir), "--packet-size", "500",
                     "--block-size", "20000"]) == 0
        stream = out_dir / "stream.pkt"
        records = stream.read_bytes()
        # keep a fifth of the records, whole: three blocks starve
        stream.write_bytes(records[:(len(records) // 516 // 5) * 516])
        dest = tmp_path / "y"
        assert main(["recv", str(out_dir), str(dest)]) == 1
        assert "blocks [0, 1, 2] incomplete" in capsys.readouterr().err
        assert not dest.exists()

    def test_failed_send_leaves_no_stale_manifest(self, tmp_path):
        from repro.cli import main

        blob = _random_bytes(40_000, seed=33)
        src = tmp_path / "f.bin"
        src.write_bytes(blob)
        out_dir = tmp_path / "out"
        assert main(["send", str(src), str(out_dir), "--packet-size", "500",
                     "--block-size", "5000"]) == 0
        assert (out_dir / "manifest.json").exists()
        # a re-send that dies on the channel must not leave the old
        # manifest paired with the new stream
        assert main(["send", str(src), str(out_dir), "--packet-size", "500",
                     "--block-size", "5000", "--loss", "0.99"]) == 2
        assert not (out_dir / "manifest.json").exists()

    def test_send_rejects_empty_file(self, tmp_path):
        from repro.cli import main

        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        assert main(["send", str(empty), str(tmp_path / "out")]) == 2

    def test_recv_detects_truncated_stream(self, tmp_path, capsys):
        from repro.cli import main

        blob = _random_bytes(50_000, seed=32)
        src = tmp_path / "f.bin"
        src.write_bytes(blob)
        out_dir = tmp_path / "out"
        assert main(["send", str(src), str(out_dir), "--packet-size", "500",
                     "--block-size", "5000"]) == 0
        stream = out_dir / "stream.pkt"
        stream.write_bytes(stream.read_bytes()[:-7])  # tear mid-record
        assert main(["recv", str(out_dir), str(tmp_path / "y")]) == 2

    def test_recv_without_a_stream_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "f.bin"
        src.write_bytes(_random_bytes(50_000, seed=32))
        out_dir = tmp_path / "out"
        assert main(["send", str(src), str(out_dir), "--packet-size", "500",
                     "--block-size", "5000"]) == 0
        (out_dir / "stream.pkt").unlink()
        assert main(["recv", str(out_dir), str(tmp_path / "y")]) == 2
        assert "stream.pkt" in capsys.readouterr().err
        assert not (tmp_path / "y").exists()
