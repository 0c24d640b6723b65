"""Golden wire vectors: the bytes on the wire are the contract.

``tests/golden/wire_vectors.json`` pins, for every registered family, a
fixed-seed manifest and the first :data:`RECORDS` framed data records of
a single-block stream (legacy 12-byte header) and of a multi-block
stream (16-byte block header), plus one encoded ``FeedbackReport``.
Everything above the codec may be merged, re-based or deleted behind
these vectors; a change that moves one of them changed what a peer on
another host sees.

The committed file was generated at the commit *before* the receiver
stack was collapsed onto the one decoder contract.  Regenerate (only
for an intended wire change) with::

    PYTHONPATH=src python tests/test_golden_vectors.py
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro import api
from repro.codes.registry import available_codes
from repro.fountain.packets import record_ids
from repro.net.transport.base import (FRAME_DATA, frame_records, iter_frames,
                                      pack_frame)
from repro.protocol.feedback import FeedbackReport

GOLDEN = pathlib.Path(__file__).parent / "golden" / "wire_vectors.json"

#: framed records pinned per stream.
RECORDS = 8

_PACKET = 32
_SEED = 20260917

#: (label, object bytes, block bytes): 40 packets in one block, and 100
#: packets striped over four blocks (the tail block is short).
_SHAPES = (("single", 40 * _PACKET - 5, 64 * _PACKET),
           ("multi", 100 * _PACKET - 11, 32 * _PACKET))


def _object(size: int) -> bytes:
    return np.random.default_rng(_SEED).integers(
        0, 256, size=size, dtype=np.uint8).tobytes()


def _session(family: str, size: int, block: int) -> api.SenderSession:
    return api.SenderSession(_object(size), code=family,
                             packet_size=_PACKET, block_size=block,
                             seed=_SEED, file_name="golden.bin")


def family_vectors(family: str) -> dict:
    """Canonical manifest text and framed records, per stream shape."""
    out = {}
    for label, size, block in _SHAPES:
        session = _session(family, size, block)
        out[label] = {
            "manifest": json.dumps(session.manifest(), sort_keys=True),
            "frames": [
                pack_frame(FRAME_DATA, packet.to_bytes()).hex()
                for packet in session.packets(RECORDS)],
        }
    return out


def feedback_vector() -> str:
    return FeedbackReport(
        receiver_id=0xC0FFEE, loss=0.125, progress=0.5, packets_used=4321,
        blocks_total=7, complete=False, receivers=3,
        lagging=((5, 40), (2, 17), (6, 1))).encode().hex()


def all_vectors() -> dict:
    vectors = {family.name: family_vectors(family.name)
               for family in available_codes()}
    vectors["feedback-report"] = feedback_vector()
    return vectors


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_registered_family_is_pinned(golden):
    assert sorted(golden) == sorted(
        [family.name for family in available_codes()] + ["feedback-report"])


@pytest.mark.parametrize("family",
                         [family.name for family in available_codes()])
def test_family_wire_bytes_match_golden(family, golden):
    assert family_vectors(family) == golden[family]


@pytest.mark.parametrize("family",
                         [family.name for family in available_codes()])
def test_record_window_frames_match_golden(family, golden):
    """The windowed send path puts the same bytes on the wire."""
    for label, size, block in _SHAPES:
        session = _session(family, size, block)
        frames = frame_records(session.server.record_window(RECORDS))
        assert [bytes(row).hex() for row in frames] \
            == golden[family][label]["frames"]


@pytest.mark.parametrize("family",
                         [family.name for family in available_codes()])
def test_golden_frames_parse_back_through_the_one_reader(family, golden):
    """``record_ids`` reads every pinned frame back to the per-packet
    stream's ``(block, index, serial)``, under both header shapes, and a
    receiver built from the pinned manifest takes every record."""
    for label, size, block in _SHAPES:
        pinned = golden[family][label]
        receiver = api.ReceiverSession(json.loads(pinned["manifest"]))
        bodies = [body for frame in pinned["frames"]
                  for _, body in iter_frames(bytes.fromhex(frame))]
        records = np.frombuffer(b"".join(bodies), dtype=np.uint8).reshape(
            len(bodies), receiver.record_size)
        ids = record_ids(records, receiver.codec.header_size)
        assert list(zip(*[column.tolist() for column in ids])) == [
            (packet.block, packet.index, packet.serial)
            for packet in _session(family, size, block).packets(RECORDS)]
        assert not receiver.receive_records(bodies)
        assert receiver.rejected == 0 and receiver.packets_used == RECORDS


def test_header_sizes_are_the_two_documented_ones(golden):
    for family in available_codes():
        single, multi = (golden[family.name][label]["frames"]
                         for label, _, _ in _SHAPES)
        assert {len(frame) // 2 for frame in single} == {3 + 12 + _PACKET}
        assert {len(frame) // 2 for frame in multi} == {3 + 16 + _PACKET}


def test_feedback_report_matches_golden(golden):
    assert feedback_vector() == golden["feedback-report"]
    report = FeedbackReport.decode(bytes.fromhex(golden["feedback-report"]))
    assert report.lagging == ((5, 40), (2, 17), (6, 1))
    assert report.packets_used == 4321


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(all_vectors(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
