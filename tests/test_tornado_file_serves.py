"""Serve pins for the Tornado B file serve and its structural shadow.

A file serve stops once a payload-less (structural) shadow decoder of
the recording is complete, plus ``extra`` more survivors.
``tests/golden/tornado_file_serves.json`` pins what ``tornado-b`` file
serves produced at eight loss seeds before a stalled Tornado tail kept
one GF(2) core behind its solved cap (the decoder then observed and
peeled every late packet): per seed, the serve's ``emitted`` count, the
manifest's ``packets_written`` and a SHA-256 of ``stream.pkt``.  Where
the shadow completes must not move with how it gets there.

Regenerate (only for an intended change of the Tornado stream or of the
serve loop, and then from a tree whose Tornado decoder peels every
packet on arrival) with::

    PYTHONPATH=src python tests/test_tornado_file_serves.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import tempfile

import numpy as np
import pytest

from repro import api
from repro.net.transport import FileTransport

GOLDEN = (pathlib.Path(__file__).parent / "golden"
          / "tornado_file_serves.json")

SEEDS = tuple(range(8))
PACKET = 64
#: k = 256 per block, the smallest with a graph layer over the cap; the
#: object is three and a half blocks.
BLOCK = 256 * PACKET
SIZE = 7 * BLOCK // 2


def serve_pin(seed: int) -> dict:
    """One serve's counters and the digest of what it recorded."""
    data = np.random.default_rng(seed).integers(
        0, 256, size=SIZE, dtype=np.uint8).tobytes()
    session = api.SenderSession(data, code="tornado-b", packet_size=PACKET,
                                block_size=BLOCK, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        report = session.serve(FileTransport(directory, loss=0.1,
                                             seed=100 + seed),
                               extra=seed % 3)
        manifest = json.loads((directory / "manifest.json").read_text())
        stream = (directory / "stream.pkt").read_bytes()
    return {"emitted": report.emitted,
            "packets_written": manifest["packets_written"],
            "stream": hashlib.sha256(stream).hexdigest()}


def all_pins() -> dict:
    return {str(seed): serve_pin(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_seed_is_pinned(golden):
    assert sorted(golden, key=int) == [str(seed) for seed in SEEDS]


@pytest.mark.parametrize("seed", SEEDS)
def test_serve_matches_golden(golden, seed):
    assert serve_pin(seed) == golden[str(seed)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(all_pins(), sort_keys=True, indent=1)
                      + "\n")
    print(f"wrote {GOLDEN}")
