"""In-process transport: per-subscriber loss channels over queues.

The behavior every test and simulation used before transports existed —
a sender loop pushing packets through a
:class:`~repro.net.channel.LossyChannel` — promoted to the transport
contract.  Each subscriber owns an independent loss channel (one
receiver per channel, as in all of the paper's experiments), and the
serve loop shadows every subscriber with a structural (payload-less)
decoder so it knows when everyone has enough and can stop on its own —
the in-process stand-in for "the receiver walks away from the
fountain".

The feedback path is in-process too: subscriptions enqueue encoded
:class:`~repro.protocol.feedback.FeedbackReport` frames on the
transport (``send_feedback``), and an adaptive serve
(``serve(policy=...)``) both drains that queue and synthesises periodic
reports from its structural shadows — the memory-transport stand-in for
live receivers reporting mid-stream, since buffered subscribers only
consume after the serve returns.  Reports round-trip through the wire
encoding either way, so the memory path exercises the exact frames UDP
moves.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Deque, Iterator, List, Optional

import numpy as np

from repro.errors import ParameterError, ProtocolError, ReproError
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss
from repro.net.transport.base import (
    EMISSION_LIMIT_FACTOR,
    SERVE_WINDOW,
    ServeReport,
    Subscription,
    Transport,
    matrix_batches,
)
from repro.protocol.adaptive import AdaptivePolicy
from repro.protocol.feedback import FeedbackReport, report_from_client
from repro.utils.rng import ensure_rng, spawn_rng

__all__ = ["MemoryTransport", "MemorySubscription"]


class MemorySubscription(Subscription):
    """One subscriber's buffered view of a memory-served stream."""

    def __init__(self, channel: LossyChannel,
                 transport: Optional["MemoryTransport"] = None):
        self.channel = channel
        self.transport = transport
        #: delivered records as record-matrix slices, one per delivery.
        self._matrices: List[np.ndarray] = []
        self._manifest: Optional[dict] = None

    @property
    def available(self) -> int:
        """Records buffered for this subscriber so far."""
        return sum(map(len, self._matrices))

    def _deliver(self, records: np.ndarray) -> None:
        """Buffer delivered wire records, one per row of a record matrix."""
        self._matrices.append(records)

    def manifest(self, timeout: Optional[float] = None) -> dict:
        if self._manifest is None:
            raise ProtocolError(
                "no manifest yet: serve the session before consuming "
                "a memory subscription")
        return self._manifest

    def record_batches(self, timeout: Optional[float] = None
                       ) -> Iterator[np.ndarray]:
        # one matrix, so the batches are FEED_BATCH rows whatever
        # windows the serve delivered in
        if len(self._matrices) > 1:
            self._matrices = [np.concatenate(self._matrices)]
        for records in self._matrices:
            yield from matrix_batches(records)

    def send_feedback(self, report: FeedbackReport) -> bool:
        """Enqueue an encoded report on the transport's feedback queue."""
        if self.transport is None:
            return False
        self.transport.feedback_queue.append(report.encode())
        return True


class MemoryTransport(Transport):
    """Deliver a stream to in-process subscribers across lossy channels.

    Parameters
    ----------
    loss:
        Bernoulli loss probability applied independently per subscriber.
    seed:
        Base RNG seed; subscriber ``i`` draws from ``spawn_rng(seed, i)``
        so a fixed seed makes every subscriber's loss process — and the
        whole delivery — deterministic.
    """

    name = "memory"

    def __init__(self, loss: float = 0.0, seed: Optional[int] = None):
        self.loss = float(loss)
        BernoulliLoss(self.loss)    # the channel's own check, up front
        self.seed = seed
        self.subscriptions: List[MemorySubscription] = []
        #: encoded feedback frames awaiting the sender (FIFO).
        self.feedback_queue: Deque[bytes] = deque()

    def subscribe(self, **options: Any) -> MemorySubscription:
        if options:
            raise ProtocolError(
                f"memory subscriptions take no options, got {options}")
        rng = (ensure_rng(None) if self.seed is None
               else spawn_rng(self.seed, len(self.subscriptions)))
        sub = MemorySubscription(LossyChannel(BernoulliLoss(self.loss),
                                              rng=rng), transport=self)
        self.subscriptions.append(sub)
        return sub

    def drain_feedback(self, policy: Optional[AdaptivePolicy] = None,
                       feedback: Optional[Callable[[FeedbackReport], Any]]
                       = None, now: float = 0.0) -> List[FeedbackReport]:
        """Decode and hand out every queued feedback frame."""
        reports = []
        while self.feedback_queue:
            report = FeedbackReport.decode(self.feedback_queue.popleft())
            reports.append(report)
            if policy is not None:
                policy.observe(report, now=now)
            if feedback is not None:
                feedback(report)
        return reports

    def serve(self, session: Any, *, count: Optional[int] = None,
              extra: int = 0,
              policy: Optional[AdaptivePolicy] = None,
              feedback: Optional[Callable[[FeedbackReport], Any]] = None,
              report_every: int = 128,
              **options: Any) -> ServeReport:
        """Pump packets to every subscriber until all could decode.

        With ``count=None`` the serve stops once a structural shadow of
        every subscriber is complete (plus ``extra`` more emissions);
        an explicit ``count`` emits exactly that many packets, and
        without ``policy``/``feedback`` to report to, feeds no shadow.

        Two passes, as the file serve makes.  The first draws ids only
        (``TransferServer.draw_ids``) in windows crossing every
        subscriber's channel: each incomplete shadow takes its delivered
        rows in one ``receive_window`` call, which says how many it
        consumed before completing; the stop is the latest completion
        plus ``extra``, and the window past it is taken back from the
        source and every channel.  The second stamps only the rows some
        subscriber receives (``expect``, then ``records``).  The stream,
        the verdicts and the counters are a packet-at-a-time serve's.

        With ``policy=`` the serve closes the loop: every
        ``report_every`` emissions each shadow receiver's state is
        encoded as a wire-faithful feedback report (loss from its
        channel's observed rate), folded into the policy alongside any
        queued subscription reports, and the policy's block-schedule
        decision is applied to the live source via ``reweight``.
        ``feedback`` sees every report either way.  ``report_every``
        below 1 is a :class:`~repro.errors.ParameterError`; it stays an
        option, unlike the policy's tuning, because the pinned serve
        trajectories (``tests/golden/structural_raptor_serves.json``)
        run cadences 1-3.
        """
        if report_every < 1:
            raise ParameterError(
                f"report_every must be >= 1, got {report_every}")
        if options:
            raise ProtocolError(
                "memory serve takes count/extra/policy/feedback/"
                f"report_every only, got {options}")
        if not self.subscriptions:
            raise ProtocolError(
                "no subscribers: call subscribe() before serve()")
        from repro.transfer.client import TransferClient

        manifest = session.manifest()
        shadows = []
        for sub in self.subscriptions:
            sub._manifest = manifest
            shadows.append(TransferClient(session.codec, payload_size=None))
        limit = (EMISSION_LIMIT_FACTOR * session.total_k
                 if count is None else count)
        adaptive = policy is not None or feedback is not None
        # the shadows decide the automatic stop and write the feedback
        # reports; an explicit count without either skips their decode
        # work
        watched = shadows if count is None or adaptive else []
        source = session.source
        block_ks = session.codec.plan.block_ks
        start = time.perf_counter()
        emitted = 0
        # the stop: the limit, until every shadow is complete; then the
        # emission the last one completed on, plus the extras
        end = limit
        completed_at = 0
        # the rows at least one subscriber receives, as (blocks,
        # indices, serials), and each subscriber's mask over them
        heard = [np.zeros((3, 0), dtype=np.int64)]
        verdicts = [np.zeros((len(self.subscriptions), 0), dtype=bool)]
        while emitted < end:
            n = min(SERVE_WINDOW, end - emitted)
            if adaptive:
                n = min(n, report_every - emitted % report_every)
            blocks, indices, serials = source.draw_ids(n)
            masks = np.array([sub.channel.delivery_mask(n)
                              for sub in self.subscriptions])
            for shadow, mask in zip(watched, masks):
                if shadow.is_complete:
                    continue
                rows = np.flatnonzero(mask)
                used = shadow.receive_window(blocks[rows], indices[rows])
                if shadow.is_complete:
                    completed_at = max(completed_at,
                                       emitted + int(rows[used - 1]) + 1)
            if count is None and all(s.is_complete for s in shadows):
                end = min(limit, completed_at + extra)
            keep = min(n, end - emitted)
            if keep < n:
                # the stop landed inside the window: the rest never left
                source.unwind(n - keep)
                for sub in self.subscriptions:
                    sub.channel.unwind(n - keep)
            rows = np.flatnonzero(masks[:, :keep].any(axis=0))
            heard.append(np.stack([blocks[rows], indices[rows],
                                   serials[rows]]))
            verdicts.append(masks[:, rows])
            emitted += keep
            if adaptive and emitted % report_every == 0:
                now = time.perf_counter() - start
                for i, (sub, shadow) in enumerate(
                        zip(self.subscriptions, shadows)):
                    report = FeedbackReport.decode(report_from_client(
                        shadow, receiver_id=i,
                        loss=sub.channel.observed_loss_rate).encode())
                    if policy is not None:
                        policy.observe(report, now=now)
                    if feedback is not None:
                        feedback(report)
                self.drain_feedback(policy, feedback, now=now)
                if policy is not None:
                    decision = policy.decide(block_ks, now=now)
                    if decision.weights:
                        source.reweight(list(decision.weights))
        ids = np.concatenate(heard, axis=1)
        masks = np.concatenate(verdicts, axis=1)
        source.expect(ids[0], ids[1])
        records = source.records(*ids)
        for sub, mask in zip(self.subscriptions, masks):
            # a subscriber who hears every stamped row (the only one, or
            # one who lost nothing the others heard) is handed the
            # matrix itself: nothing downstream writes to it
            sub._deliver(records if mask.all() else records[mask])
        delivered = int(np.count_nonzero(masks))
        if count is None and not all(s.is_complete for s in shadows):
            incomplete = [i for i, s in enumerate(shadows)
                          if not s.is_complete]
            raise ReproError(
                f"channel too lossy: {limit} emissions were not enough "
                f"for subscribers {incomplete[:8]}")
        return ServeReport(
            transport=self.name,
            emitted=emitted,
            delivered=delivered,
            duration=time.perf_counter() - start,
            destinations=len(self.subscriptions),
        )
