"""File transport: a ``stream.pkt`` + ``manifest.json`` directory.

The recorded-stream shape `repro send` / `repro recv` have always
spoken, promoted to the transport contract: ``serve`` streams the
session across a simulated lossy channel and records the survivors;
``subscribe`` replays a recorded directory.  A structural shadow
receiver tells the sender when the recorded survivors have become
decodable — mimicking a receiver-driven session without paying for a
second payload decode — after which ``extra`` more survivors are
recorded as safety margin.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Any, Iterator, Optional, Union

import numpy as np

from repro.errors import ProtocolError, ReproError
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss
from repro.net.transport.base import (
    EMISSION_LIMIT_FACTOR,
    FEED_BATCH,
    SERVE_WINDOW,
    ServeReport,
    Subscription,
    Transport,
    parse_manifest,
)
from repro.transfer.codec import record_size

__all__ = ["FileTransport", "FileSubscription",
           "MANIFEST_NAME", "STREAM_NAME"]

MANIFEST_NAME = "manifest.json"
STREAM_NAME = "stream.pkt"


class FileSubscription(Subscription):
    """Replays a recorded transfer directory as a record feed.

    The stream is read from one open file, :data:`FEED_BATCH` records at
    a time, so a replay holds one batch of it, not the whole recording.
    """

    def __init__(self, directory: Union[str, pathlib.Path]):
        self.directory = pathlib.Path(directory)
        self._manifest: Optional[dict] = None

    def manifest(self, timeout: Optional[float] = None) -> dict:
        """The recorded manifest: a UTF-8 JSON object.  A missing or
        unreadable one is a :class:`~repro.errors.ProtocolError`, as a
        malformed manifest frame is to a UDP subscription."""
        if self._manifest is None:
            path = self.directory / MANIFEST_NAME
            if not path.exists():
                raise ProtocolError(f"no {MANIFEST_NAME} in {self.directory}")
            try:
                self._manifest = parse_manifest(path.read_bytes())
            except ProtocolError as err:
                raise ProtocolError(f"{path}: {err}") from None
        return self._manifest

    def _stream_path(self) -> pathlib.Path:
        path = self.directory / STREAM_NAME
        if not path.is_file():
            raise ProtocolError(f"no {STREAM_NAME} in {self.directory}")
        return path

    @property
    def available(self) -> int:
        """Packet records present in the recorded stream."""
        return self._stream_path().stat().st_size // record_size(
            self.manifest())

    def record_batches(self, timeout: Optional[float] = None
                       ) -> Iterator[np.ndarray]:
        size = record_size(self.manifest())
        with open(self._stream_path(), "rb") as stream:
            total = os.fstat(stream.fileno()).st_size
            if total % size:
                raise ReproError(
                    f"stream is {total} bytes, not a multiple of the "
                    f"{size}-byte packet record — truncated or wrong "
                    "manifest?")
            while raw := stream.read(FEED_BATCH * size):
                yield np.frombuffer(raw, dtype=np.uint8).reshape(-1, size)

    def send_feedback(self, report: Any) -> bool:
        """The contract's documented no-op: a recording has no sender.

        Feedback from a receiver replaying ``stream.pkt`` is dropped on
        the floor (returning False) — the sender that wrote the
        directory is long gone, and the fountain decodes open-loop
        regardless.
        """
        return False


class FileTransport(Transport):
    """Record a stream's channel survivors into a directory.

    Parameters
    ----------
    directory:
        Where ``stream.pkt`` and ``manifest.json`` live.
    loss:
        Bernoulli loss rate of the simulated channel crossed while
        recording.
    seed:
        Channel RNG seed (``None`` draws fresh entropy).
    """

    name = "file"

    def __init__(self, directory: Union[str, pathlib.Path],
                 loss: float = 0.0, seed: Optional[int] = None):
        self.directory = pathlib.Path(directory)
        self.loss = float(loss)
        BernoulliLoss(self.loss)    # the channel's own check, up front
        self.seed = seed

    def subscribe(self, **options: Any) -> FileSubscription:
        if options:
            raise ProtocolError(
                f"file subscriptions take no options, got {options}")
        return FileSubscription(self.directory)

    def serve(self, session: Any, *, count: Optional[int] = None,
              extra: int = 0, policy: Any = None, feedback: Any = None,
              **options: Any) -> ServeReport:
        """Record the stream's survivors; write the manifest on success.

        Two passes over the same stream.  The first draws ids only
        (``TransferServer.draw_ids``), in windows of
        :data:`SERVE_WINDOW` emissions crossing the channel: the
        structural shadow takes a window's survivors in one
        ``receive_window`` call, which says how many it consumed before
        completing; the stop is that survivor plus ``extra`` more, and
        whatever of the window lies past it is taken back from the
        source and the channel.  The second stamps and writes only the
        survivors, window by window, after telling the block encoders
        which rows they will be asked for (``TransferServer.expect``) —
        so no dropped row and no row past the stop is ever synthesised,
        and a Tornado block computes the cap rows it records in one
        product.  The records, the verdicts, the counters and where the
        stream stops are a packet-at-a-time serve's.

        ``policy``/``feedback`` are accepted and ignored — the feedback
        no-op of the transport contract: a recorded stream has no
        receivers while it is being written, so there is nothing to
        adapt to and no report will ever arrive.

        Raises :class:`~repro.errors.ReproError` when the channel is
        too lossy to finish within the emission budget.
        """
        if options:
            raise ProtocolError(
                f"file serve takes count/extra/policy/feedback only, "
                f"got {options}")
        from repro.transfer.client import TransferClient

        channel = LossyChannel(BernoulliLoss(self.loss), rng=self.seed)
        shadow = TransferClient(session.codec, payload_size=None)
        limit = (EMISSION_LIMIT_FACTOR * session.total_k
                 if count is None else count)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Drop any stale manifest first: stream.pkt is rewritten below,
        # and a failed serve must not leave the new stream paired with
        # an old manifest's geometry.  The fresh manifest lands only on
        # success.
        (self.directory / MANIFEST_NAME).unlink(missing_ok=True)
        start = time.perf_counter()
        source = session.source
        # the survivors' (blocks, indices, serials), window by window
        kept = [np.zeros((3, 0), dtype=np.int64)]
        # survivors still to record once the shadow is complete (None
        # before; the structural shadow only matters for the automatic
        # stop, so an explicit count skips its decode work too)
        left: Optional[int] = None
        with open(self.directory / STREAM_NAME, "wb") as stream:
            while left != 0 and channel.sent < limit:
                n = min(SERVE_WINDOW, limit - channel.sent)
                blocks, indices, serials = source.draw_ids(n)
                rows = np.flatnonzero(channel.delivery_mask(n))
                if count is None and left is None:
                    used = shadow.receive_window(blocks[rows], indices[rows])
                    if shadow.is_complete:
                        left = used + extra
                if left is not None:
                    if left <= len(rows):
                        # the stop landed inside the window: the rest
                        # never left
                        rows = rows[:left]
                        unsent = n - int(rows[-1]) - 1
                        source.unwind(unsent)
                        channel.unwind(unsent)
                    left -= len(rows)
                kept.append(np.stack([blocks[rows], indices[rows],
                                      serials[rows]]))
            ids = np.concatenate(kept, axis=1)
            source.expect(ids[0], ids[1])
            for first in range(0, ids.shape[1], SERVE_WINDOW):
                stream.write(source.records(
                    *ids[:, first:first + SERVE_WINDOW]))
        survivors = ids.shape[1]
        if count is None and not shadow.is_complete:
            raise ReproError(
                f"channel too lossy: {limit} emissions were not enough "
                f"(blocks incomplete: {shadow.incomplete_blocks[:8]})")
        from repro import __version__

        manifest = session.manifest(
            version=__version__,
            loss=self.loss,
            packets_written=survivors,
        )
        (self.directory / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2))
        return ServeReport(
            transport=self.name,
            emitted=channel.sent,
            delivered=survivors,
            dropped=channel.sent - channel.delivered,
            duration=time.perf_counter() - start,
        )
