"""Serve pins for the structural Raptor shadow.

A memory or file serve stops when a payload-less (structural) shadow
decoder of every receiver is complete, and an adaptive memory serve
reads the shadows' ``min_additional_packets`` into its feedback frames
and block weights.  ``tests/golden/structural_raptor_serves.json`` pins
what those serves produced over ``raptor`` while the shadow was the
peeling engine itself: per seed, the ``ServeReport`` counters and a
SHA-256 of each subscriber's records for a plain memory serve, the same
plus a digest of every feedback frame for a serve under
``policy=AdaptivePolicy()``, and the counters plus the ``stream.pkt``
digest for a file serve.  Whatever decides completion structurally
must reproduce them byte for byte.

Regenerate (only for an intended change of the Raptor stream or of the
serve loop, and then from a tree whose structural Raptor decoder is
still the engine, ``RaptorDecoder(geometry)``) with::

    PYTHONPATH=src python tests/test_structural_raptor_serves.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import tempfile

import numpy as np
import pytest

from repro import api
from repro.net.transport import FileTransport, MemoryTransport
from repro.protocol.adaptive import AdaptivePolicy

GOLDEN = (pathlib.Path(__file__).parent / "golden"
          / "structural_raptor_serves.json")

SEEDS = tuple(range(12))
PACKET = 32
_KINDS = ("memory", "memory-policy", "file")


def _geometry(seed: int):
    """Object size, block size, loss and subscriber count of one seed:
    one to three blocks of up to k = 256, 10 % to 35 % loss."""
    block = (32, 96, 256)[seed % 3] * PACKET
    size = block * (1 + seed % 3) - (seed * 5) % block
    loss = (0.1, 0.2, 0.35)[seed % 4 % 3]
    return size, block, loss, 1 + seed % 3


def _session(seed: int) -> api.SenderSession:
    size, block, _, _ = _geometry(seed)
    data = np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8).tobytes()
    return api.SenderSession(data, code="raptor", packet_size=PACKET,
                             block_size=block, seed=seed)


def _digest(chunks) -> str:
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(bytes(chunk))
    return hasher.hexdigest()


def _counters(report) -> dict:
    fields = dataclasses.asdict(report)
    del fields["duration"]
    fields["dropped"] = report.dropped
    return fields


def serve_pin(kind: str, seed: int) -> dict:
    """One serve's counters and the digests of what it put out."""
    _, _, loss, subscribers = _geometry(seed)
    session = _session(seed)
    if kind == "file":
        with tempfile.TemporaryDirectory() as tmp:
            directory = pathlib.Path(tmp)
            report = session.serve(FileTransport(directory, loss=loss,
                                                 seed=seed), extra=seed % 4)
            stream = (directory / "stream.pkt").read_bytes()
        return {"report": _counters(report), "stream": _digest([stream])}
    transport = MemoryTransport(loss=loss, seed=seed)
    subs = [transport.subscribe() for _ in range(subscribers)]
    frames = []
    options = {"extra": seed % 4}
    if kind == "memory-policy":
        # a report every one to three emissions: the frames read the
        # shadows' deficit bounds mid-decode, where a bound tighter or
        # looser than the engine's would show
        options.update(policy=AdaptivePolicy(), report_every=1 + seed % 3,
                       feedback=lambda report: frames.append(report.encode()))
    report = session.serve(transport, **options)
    pin = {"report": _counters(report),
           "records": [_digest(sub.records()) for sub in subs]}
    if kind == "memory-policy":
        assert frames, "the policy must have seen reports"
        pin["feedback"] = _digest(frames)
        pin["feedback_count"] = len(frames)
    return pin


def all_pins() -> dict:
    return {kind: {str(seed): serve_pin(kind, seed) for seed in SEEDS}
            for kind in _KINDS}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_serve_is_pinned(golden):
    assert sorted(golden) == sorted(_KINDS)
    for kind in _KINDS:
        assert sorted(golden[kind], key=int) == [str(s) for s in SEEDS]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", _KINDS)
def test_serve_matches_golden(golden, kind, seed):
    assert serve_pin(kind, seed) == golden[kind][str(seed)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(all_pins(), sort_keys=True, indent=1)
                      + "\n")
    print(f"wrote {GOLDEN}")
