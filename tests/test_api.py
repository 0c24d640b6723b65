"""The repro.api facade: sessions and one-call file transfer."""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.codes import available_codes
from repro.errors import (
    DecodeFailure,
    ParameterError,
    ProtocolError,
    ReproError,
)
from repro.fountain.packets import EncodingPacket
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss
from repro.transfer.codec import (
    MAX_BLOCK_PACKETS,
    MAX_BLOCKS,
    MAX_PACKET_SIZE,
    record_size,
)


FAMILIES = [family.name for family in available_codes()]


def _random_bytes(n, seed):
    return bytes(np.random.default_rng(seed).integers(0, 256, n,
                                                      dtype=np.uint8))


class TestSessions:
    @pytest.mark.parametrize("spec", ["tornado-b", "lt", "rs"])
    def test_in_memory_round_trip(self, spec):
        data = _random_bytes(60_000, seed=1)
        sender = api.SenderSession(data, code=spec, packet_size=256,
                                   block_size=8_192, seed=7)
        receiver = api.ReceiverSession(sender.manifest())
        assert receiver.code_spec == sender.code_spec
        channel = LossyChannel(BernoulliLoss(0.15), rng=2)
        for packet in channel.transmit(sender.packets()):
            if receiver.receive(packet):
                break
        assert receiver.is_complete
        assert receiver.data() == data
        assert receiver.stats().efficiency > 0.4

    def test_spec_parameters_flow_through_manifest(self):
        data = _random_bytes(5_000, seed=2)
        sender = api.SenderSession(data, code="lt:c=0.05,delta=0.5",
                                   packet_size=128, block_size=2_048)
        manifest = sender.manifest()
        assert manifest["code"] == "lt:c=0.05,delta=0.5"
        receiver = api.ReceiverSession(json.loads(json.dumps(manifest)))
        assert receiver.codec.spec.param_dict == {"c": 0.05, "delta": 0.5}

    def test_empty_object_rejected(self):
        with pytest.raises(ReproError, match="empty"):
            api.SenderSession(b"")

    def test_unknown_spec_rejected(self):
        with pytest.raises(ParameterError, match="registered families"):
            api.SenderSession(b"x" * 100, code="raptorq")

    def test_progress_and_packets_used(self):
        data = _random_bytes(20_000, seed=3)
        sender = api.SenderSession(data, code="tornado-b",
                                   packet_size=256, block_size=4_096)
        receiver = api.ReceiverSession(sender.manifest())
        assert receiver.progress == 0.0
        for packet in sender.packets():
            if receiver.receive(packet):
                break
        assert receiver.progress == 1.0
        assert receiver.packets_used >= sender.total_k


class TestUntrustedRecords:
    """``receive_records`` is the bytes-in boundary: a record that is
    the wrong length or names a packet the manifest's geometry does not
    have is an erasure — dropped, counted in ``rejected``, never raised."""

    @staticmethod
    def _stream(spec, block_size, count):
        data = _random_bytes(6_000, seed=3)
        sender = api.SenderSession(data, code=spec, packet_size=64,
                                   block_size=block_size, seed=9)
        records = [bytes(row) for row in sender.server.record_window(count)]
        return data, sender, records

    def test_wrong_length_record_is_rejected_not_a_numpy_error(self):
        data, sender, records = self._stream("lt", 2_048, 400)
        receiver = api.ReceiverSession(sender.manifest())
        assert not receiver.receive_record(records[0][:-1])
        assert not receiver.receive_records([b"", records[1] + b"\0"])
        assert receiver.rejected == 3 and receiver.packets_used == 0
        assert receiver.receive_records(records)
        assert receiver.data() == data
        assert "rejected=3" in repr(receiver)

    @pytest.mark.parametrize("spec,field,value", [
        ("lt", 3, 9999),                 # a block the plan does not have
        ("tornado-a", 0, 2 ** 31),       # an index beyond the block's n
        ("rs", 0, 2 ** 32 - 1),
    ])
    def test_hostile_header_mid_window_is_an_erasure(self, spec, field,
                                                     value):
        data, sender, records = self._stream(spec, 2_048, 600)
        hostile = bytearray(records[7])
        hostile[4 * field:4 * field + 4] = value.to_bytes(4, "big")
        records[7] = bytes(hostile)
        receiver = api.ReceiverSession(sender.manifest())
        assert receiver.receive_records(records)
        assert receiver.rejected == 1
        assert receiver.packets_used == receiver.client.total_received
        assert receiver.data() == data
        # The typed API below keeps raising for a caller's own mistake.
        with pytest.raises(ReproError):
            api.ReceiverSession(sender.manifest()).client.receive_index(
                *((9999, 0) if field == 3 else (0, value)))

    @pytest.mark.parametrize("spec,field,value", [
        ("lt", None, None),
        ("lt", 3, 9999),
        ("tornado-a", 0, 2 ** 31),
    ])
    def test_record_matrix_equals_the_same_rows_as_bytes(self, spec, field,
                                                          value):
        """A drain hands over one ``(n, record_size)`` uint8 matrix — a
        strided view behind the frame heads — and it is taken as the
        same rows in a ``bytes`` list are, hostile headers included."""
        data, sender, records = self._stream(spec, 2_048, 600)
        if field is not None:
            hostile = bytearray(records[7])
            hostile[4 * field:4 * field + 4] = value.to_bytes(4, "big")
            records[7] = bytes(hostile)
        listed = api.ReceiverSession(sender.manifest())
        matrix = api.ReceiverSession(sender.manifest())
        framed = np.frombuffer(b"".join(b"\x01\x00\x00" + r for r in records),
                               dtype=np.uint8).reshape(len(records), -1)
        for lo in range(0, len(records), 37):
            done = listed.receive_records(records[lo:lo + 37])
            assert matrix.receive_records(framed[lo:lo + 37, 3:]) == done
            assert matrix.packets_used == listed.packets_used
            assert matrix.rejected == listed.rejected
            assert matrix.stats() == listed.stats()
        assert matrix.rejected == (field is not None)
        assert matrix.is_complete and matrix.data() == listed.data() == data

    def test_wrong_width_matrix_is_rejected_row_by_row(self):
        data, sender, records = self._stream("lt", 2_048, 400)
        receiver = api.ReceiverSession(sender.manifest())
        rows = np.frombuffer(b"".join(records[:5]), dtype=np.uint8)
        assert not receiver.receive_records(rows.reshape(5, -1)[:, 1:])
        assert not receiver.receive_records(rows.reshape(10, -1))
        assert receiver.rejected == 15 and receiver.packets_used == 0
        assert not receiver.receive_records(
            np.zeros((0, receiver.record_size), dtype=np.uint8))
        assert receiver.receive_records(records) and receiver.data() == data

    @staticmethod
    def _two_block_sender(spec):
        data = _random_bytes(6_000, seed=3)
        sender = api.SenderSession(data, code=spec, packet_size=64,
                                   block_size=4_096, seed=9)
        assert sender.num_blocks == 2
        return data, sender

    @pytest.mark.parametrize("case", ["unknown-block", "short-payload",
                                      "legacy-header"])
    @pytest.mark.parametrize("spec", FAMILIES)
    def test_a_packet_passes_the_same_gate_as_its_record(self, spec, case):
        """``receive(packet)`` is ``receive_records`` of the packet's
        record: a packet naming a block the plan lacks, one with a short
        payload and one under the 12-byte header on a block-aware stream
        are rejected before anything counts them, and a block they name
        stays untouched."""
        data, sender = self._two_block_sender(spec)
        payload = bytes(range(64))
        hostile = {
            "unknown-block": lambda: EncodingPacket.from_bytes(
                struct.pack(">4I", 0, 0, 0, 99) + payload, block_aware=True),
            "short-payload": lambda: EncodingPacket.from_bytes(
                struct.pack(">4I", 0, 1, 0, 0) + payload[:10],
                block_aware=True),
            "legacy-header": lambda: EncodingPacket.from_bytes(
                struct.pack(">3I", 3, 2, 0) + payload),
        }[case]()
        typed = api.ReceiverSession(sender.manifest())
        raw = api.ReceiverSession(sender.manifest())
        assert not typed.receive(hostile)
        assert not raw.receive_records([hostile.to_bytes()])
        for session in (typed, raw):
            assert session.packets_used == 0 and session.rejected == 1
            assert session.client.block_stats(0) is None
        assert typed.stats() == raw.stats()
        for packet in sender.packets():
            done = typed.receive(packet)
            assert raw.receive_records([packet.to_bytes()]) == done
            assert (typed.packets_used, typed.rejected) \
                == (raw.packets_used, raw.rejected)
            assert typed.stats() == raw.stats()
            if done:
                break
        assert typed.rejected == 1
        assert typed.data() == raw.data() == data

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_a_packet_stream_counts_as_its_records(self, spec):
        """On a clean stream both intakes agree packet by packet:
        completion, ``packets_used``, ``rejected`` and ``stats()``, and
        the payload bytes decode as the family's symbols."""
        data, sender = self._two_block_sender(spec)
        typed = api.ReceiverSession(sender.manifest())
        raw = api.ReceiverSession(sender.manifest())
        for packet in sender.packets():
            done = typed.receive(packet)
            assert raw.receive_records([packet.to_bytes()]) == done
            assert (typed.packets_used, typed.rejected) \
                == (raw.packets_used, raw.rejected)
            assert typed.stats() == raw.stats()
            if done:
                break
        assert typed.rejected == 0 and typed.is_complete
        assert typed.data() == raw.data() == data

    @pytest.mark.parametrize("spec,block_size", [
        ("lt", 2_048), ("raptor", 8_192), ("tornado-a", 2_048),
        ("rs", 8_192)])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_mutated_and_truncated_records_never_raise(self, spec,
                                                       block_size, data):
        payload, sender, records = self._stream(spec, block_size, 700)
        receiver = api.ReceiverSession(sender.manifest())
        fixed_rate = receiver.codec.code_for(0).n is not None
        #: header fields a mutation may overwrite with a value that
        #: names no packet (any serial / group is harmless; an index is
        #: only detectably wrong where the code has an n).
        fields = [(1, 0), (2, 0)]
        if receiver.codec.block_aware:
            fields.append((3, receiver.codec.num_blocks))
        if fixed_rate:
            fields.append((0, max(receiver.codec.code_for(b).n for b in
                                  range(receiver.codec.num_blocks))))
        # Mutations land in the first 60 records: the object is 94
        # packets, so every one of them arrives before completion.
        hostile = 0
        for row in data.draw(st.lists(st.integers(0, 59), unique=True,
                                      max_size=20), label="mutated rows"):
            if data.draw(st.booleans(), label="truncate"):
                size = data.draw(st.integers(0, receiver.record_size + 8)
                                 .filter(lambda n: n != receiver.record_size))
                records[row] = (records[row] * 2)[:size]
                hostile += 1
            else:
                field, low = data.draw(st.sampled_from(fields))
                value = data.draw(st.integers(low, 2 ** 32 - 1))
                record = bytearray(records[row])
                record[4 * field:4 * field + 4] = value.to_bytes(4, "big")
                records[row] = bytes(record)
                hostile += field in (0, 3)
        step = data.draw(st.sampled_from([1, 7, 256, 700]), label="batch")
        for pos in range(0, len(records), step):
            receiver.receive_records(records[pos:pos + step])
            assert receiver.packets_used == receiver.client.total_received
        assert receiver.is_complete
        assert receiver.rejected == hostile
        assert receiver.data() == payload


#: every field ``ObjectCodec.from_manifest`` indexes, with a value of
#: the wrong JSON type for it.
MANIFEST_DAMAGE = [(field, damage)
                   for field, wrong in [("file_size", "6000"),
                                        ("packet_size", 64.0),
                                        ("block_packets", [32]),
                                        ("code", 7), ("seed", True)]
                   for damage in ("missing", wrong)]


def damaged_manifest(field, damage):
    """A sender's manifest, JSON round-tripped, minus or with a
    mistyped ``field``."""
    sender = api.SenderSession(_random_bytes(6_000, seed=3), code="lt",
                               packet_size=64, block_size=2_048, seed=9)
    manifest = json.loads(json.dumps(sender.manifest()))
    if damage == "missing":
        del manifest[field]
    else:
        manifest[field] = damage
    return manifest


class TestUntrustedManifest:
    """A manifest arrives as JSON off a socket or a disk: one that lacks
    a field, or carries a string where an int belongs, is a
    ``ProtocolError`` naming the field — not a ``KeyError`` or a
    ``TypeError`` out of the geometry."""

    @pytest.mark.parametrize("field,damage", MANIFEST_DAMAGE)
    def test_receiver_session_names_the_field(self, field, damage):
        with pytest.raises(ProtocolError, match=f"'{field}' must be"):
            api.ReceiverSession(damaged_manifest(field, damage))

    def test_kind_alone_is_not_a_manifest(self):
        with pytest.raises(ProtocolError, match="'file_size'"):
            api.ReceiverSession({"kind": "transfer"})

    @pytest.mark.parametrize("block_size", [2_048, 8_192],
                             ids=["multi-block", "single-block"])
    def test_a_block_header_the_geometry_contradicts(self, block_size):
        """The flag used to win over the geometry: the receiver parsed
        every record with the wrong header, rejected them all and never
        completed."""
        sender = api.SenderSession(_random_bytes(6_000, seed=3), code="lt",
                                   packet_size=64, block_size=block_size,
                                   seed=9)
        manifest = sender.manifest()
        manifest["block_header"] = not manifest["block_header"]
        with pytest.raises(ProtocolError, match="block_header"):
            api.ReceiverSession(manifest)
        with pytest.raises(ProtocolError, match="block_header"):
            record_size(manifest)

    def test_record_size_is_the_codecs_and_builds_no_plan(self):
        for block_size in (2_048, 8_192):
            sender = api.SenderSession(_random_bytes(6_000, seed=3),
                                       packet_size=64, block_size=block_size)
            assert record_size(sender.manifest()) \
                == sender.codec.record_size \
                == sender.codec.header_size + 64
        # a plan of MAX_BLOCKS one-byte blocks is only arithmetic here
        hostile = {"kind": "transfer", "code": "lt", "seed": 0,
                   "file_size": MAX_BLOCKS, "packet_size": 1,
                   "block_packets": 1}
        assert record_size(hostile) == 17
        with pytest.raises(ProtocolError, match="positive"):
            record_size(dict(hostile, packet_size=0))

    def test_a_manifest_naming_2_to_the_40_packets_is_refused(self):
        """One-byte packets in one-packet blocks over 2**40 bytes: the
        block ceiling refuses it in O(1), before a ``BlockSpec`` per
        block (2**40 of them) or any per-block array is built."""
        hostile = {"kind": "transfer", "code": "lt", "seed": 0,
                   "file_size": 2 ** 40, "packet_size": 1,
                   "block_packets": 1}
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError, match="num_blocks"):
                record_size(hostile)
            with pytest.raises(ProtocolError, match="num_blocks"):
                api.ReceiverSession(hostile)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_adopting_a_manifest_at_the_block_ceiling_is_small(self):
        """``MAX_BLOCKS`` one-byte blocks: the plan works out each
        block's spec from its index, so adoption allocates only the
        client's per-block slots (one ``BlockSpec`` per block took the
        peak past 16 MiB)."""
        manifest = {"kind": "transfer", "code": "lt", "seed": 0,
                    "file_size": MAX_BLOCKS, "packet_size": 1,
                    "block_packets": 1}
        tracemalloc.start()
        try:
            receiver = api.ReceiverSession(manifest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert receiver.codec.num_blocks == MAX_BLOCKS
        assert receiver.codec.plan.spec(MAX_BLOCKS - 1).byte_end \
            == MAX_BLOCKS
        assert peak < 8 << 20

    @pytest.mark.parametrize("field,ceiling,manifest", [
        ("packet_size", MAX_PACKET_SIZE,
         lambda n: {"file_size": n, "packet_size": n, "block_packets": 1}),
        ("block_packets", MAX_BLOCK_PACKETS,
         lambda n: {"file_size": n, "packet_size": 1, "block_packets": n}),
        ("num_blocks", MAX_BLOCKS,
         lambda n: {"file_size": n, "packet_size": 1, "block_packets": 1}),
    ])
    def test_each_ceiling_admits_its_value_and_refuses_one_more(
            self, field, ceiling, manifest):
        base = {"kind": "transfer", "code": "lt", "seed": 0}
        assert record_size(dict(base, **manifest(ceiling))) > 0
        with pytest.raises(ProtocolError, match=field):
            record_size(dict(base, **manifest(ceiling + 1)))

    def test_block_packets_beyond_the_object_are_not_a_block(self):
        """A sender whose block size exceeds its object declares more
        packets per block than any block holds: the ceiling reads the
        largest block, not the declared size."""
        manifest = {"kind": "transfer", "code": "lt", "seed": 0,
                    "file_size": 1_000, "packet_size": 1,
                    "block_packets": 10 * MAX_BLOCK_PACKETS}
        assert api.ReceiverSession(manifest).codec.plan.block_ks == [1_000]

    @pytest.mark.parametrize("field,damage", MANIFEST_DAMAGE)
    def test_recorded_directory_names_the_field(self, tmp_path, field,
                                                damage):
        (tmp_path / api.MANIFEST_NAME).write_text(
            json.dumps(damaged_manifest(field, damage)))
        (tmp_path / api.STREAM_NAME).write_bytes(b"")
        with pytest.raises(ProtocolError, match=f"'{field}' must be"):
            api.receive_stream(tmp_path)


class TestSendReceiveFiles:
    @pytest.mark.parametrize("spec", ["tornado-b", "lt", "rs"])
    def test_megabyte_at_20_percent_loss(self, tmp_path, spec):
        """Acceptance: >= 1 MiB, 20% loss, byte-exact, spec strings only."""
        blob = _random_bytes(1_100_000, seed=41)
        src = tmp_path / "big.bin"
        src.write_bytes(blob)
        out = tmp_path / "out"
        # rs blocks stay within GF(2^8): at most 128 packets per block.
        block_size = 128 * 1024 if spec == "rs" else 256 * 1024
        report = api.send_file(src, out, code=spec, loss=0.2, extra=8,
                               block_size=block_size, seed=5)
        assert report.code_spec == spec
        assert report.serve.delivered >= report.total_k
        assert (out / api.STREAM_NAME).exists()
        back = tmp_path / "back.bin"
        received = api.receive_stream(out, back)
        assert back.read_bytes() == blob
        assert received.data == blob
        assert received.code_spec == spec
        assert received.file_name == "big.bin"

    def test_manifest_contents(self, tmp_path):
        src = tmp_path / "f.bin"
        src.write_bytes(_random_bytes(30_000, seed=6))
        report = api.send_file(src, tmp_path / "out", code="tornado-b",
                               block_size=8_192)
        manifest = json.loads(
            (tmp_path / "out" / api.MANIFEST_NAME).read_text())
        assert manifest["kind"] == "transfer"
        assert manifest["code"] == "tornado-b"
        assert manifest["file_name"] == "f.bin"
        assert manifest["packets_written"] == report.serve.delivered

    def test_too_lossy_channel_raises_and_drops_manifest(self, tmp_path):
        src = tmp_path / "f.bin"
        src.write_bytes(_random_bytes(20_000, seed=7))
        out = tmp_path / "out"
        api.send_file(src, out, block_size=4_096)
        with pytest.raises(ReproError, match="too lossy"):
            api.send_file(src, out, block_size=4_096, loss=0.999)
        assert not (out / api.MANIFEST_NAME).exists()

    def test_receive_requires_manifest(self, tmp_path):
        with pytest.raises(ProtocolError, match="manifest"):
            api.receive_stream(tmp_path)

    def test_truncated_stream_detected(self, tmp_path):
        src = tmp_path / "f.bin"
        src.write_bytes(_random_bytes(20_000, seed=8))
        out = tmp_path / "out"
        api.send_file(src, out, block_size=4_096, packet_size=500)
        stream = out / api.STREAM_NAME
        stream.write_bytes(stream.read_bytes()[:-7])
        with pytest.raises(ReproError, match="record"):
            api.receive_stream(out)

    def test_missing_stream_is_a_protocol_error(self, tmp_path):
        """It used to escape as a bare ``FileNotFoundError``."""
        src = tmp_path / "f.bin"
        src.write_bytes(_random_bytes(20_000, seed=8))
        out = tmp_path / "out"
        api.send_file(src, out, block_size=4_096, packet_size=500)
        (out / api.STREAM_NAME).unlink()
        with pytest.raises(ProtocolError, match=api.STREAM_NAME):
            api.receive_stream(out)

    def test_insufficient_stream_raises_decode_failure(self, tmp_path):
        src = tmp_path / "f.bin"
        src.write_bytes(_random_bytes(20_000, seed=9))
        out = tmp_path / "out"
        api.send_file(src, out, block_size=4_096, packet_size=500)
        stream = out / api.STREAM_NAME
        raw = stream.read_bytes()
        record = 500 + 16
        stream.write_bytes(raw[: (len(raw) // record // 2) * record])
        with pytest.raises(DecodeFailure, match="not enough"):
            api.receive_stream(out)

    def test_report_overhead(self, tmp_path):
        src = tmp_path / "f.bin"
        src.write_bytes(_random_bytes(50_000, seed=10))
        report = api.send_file(src, tmp_path / "out", code="lt",
                               block_size=16_384, loss=0.1)
        assert report.reception_overhead == pytest.approx(
            report.serve.delivered / report.total_k - 1)
        assert report.serve.emitted >= report.serve.delivered


class TestTopLevelExports:
    def test_facade_reachable_from_repro(self):
        import repro

        assert repro.send_file is api.send_file
        assert repro.receive_stream is api.receive_stream
        assert repro.SenderSession is api.SenderSession
        assert repro.ReceiverSession is api.ReceiverSession
