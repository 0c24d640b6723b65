"""The adaptive sender: aggregate feedback, retune the live stream.

:class:`AdaptivePolicy` closes the loop the paper deliberately left
open.  Receivers whisper :class:`~repro.protocol.feedback.
FeedbackReport` frames back up the transport; the policy aggregates
them — a robust quantile over the population so one pathological
receiver cannot hijack the stream, with staleness decay so a silent
receiver's last word fades — and drives two levers:

* **block schedule** — per-block deficits from the lagging lists are
  blended into deficit-round-robin weights
  (:func:`~repro.transfer.schedule.weighted_slots`) and swapped into
  the live :class:`~repro.transfer.server.TransferServer` via
  :meth:`~repro.transfer.server.TransferServer.reweight`; the
  encode-once payload cache and every ``fork()`` are untouched because
  only the schedule cursor changes.  The
  :class:`~repro.sim.swarm.SwarmSimulator` closed loop asks the policy
  for this lever alone (:meth:`AdaptivePolicy.block_shares`, fed
  per-sweep vectorized deficit aggregates in place of report frames),
  so the closed loop's measured win (``BENCH_adaptive.json``) is this
  lever's.
* **rate** — the token-bucket pacing rate scales like ``1/(1 - loss)``,
  normalised at :data:`NOMINAL_LOSS` so a clean population steps the
  rate *down* from the provisioned budget and a fading one steps it up
  (applied live via :meth:`~repro.net.transport.pacing.TokenBucket.
  set_rate`).  It stays because ``repro serve --adaptive --pace``
  applies it, although nothing measures its effect yet.

The tuning is fixed: each knob is a module constant below, at the one
value every caller uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.protocol.feedback import FeedbackReport

__all__ = ["AdaptivePolicy", "PolicyDecision"]

#: which receiver the sender provisions for: the worst decile, since
#: the stragglers *are* the p99 tail.
QUANTILE = 0.9
#: the loss the open-loop sender was provisioned against: the rate scale
#: is 1.0 exactly there, below 1 on cleaner populations.
NOMINAL_LOSS = 0.1
#: seconds after which a receiver's last report stops counting.
STALE_AFTER = 30.0
#: blend between proportional striping (0.0) and pure deficit-chasing
#: (1.0); at 0.5 every block keeps at least half its proportional weight.
SCHEDULE_GAIN = 0.5
#: EWMA step on the rate scale, so one noisy aggregate cannot slam the
#: token bucket around.
RATE_ALPHA = 0.5
#: ceiling on the rate scale (a runaway boost would melt the socket
#: buffers).  No floor: the raw scale ``(1 - NOMINAL_LOSS) / (1 - loss)``
#: is never below 0.9.
MAX_SCALE = 4.0
#: receivers the report table holds; a new id at the cap evicts the
#: receiver heard longest ago.
MAX_RECEIVERS = 16_384


@dataclass(frozen=True)
class PolicyDecision:
    """One policy step's output, ready to apply to a live stream."""

    #: multiplier on the provisioned pacing rate.
    rate_scale: float
    #: deficit-round-robin weights, one per block (empty = no change).
    weights: Tuple[float, ...]
    #: receivers the fresh reports speak for (count hints summed).
    active: int
    #: receivers already complete among the known population.
    complete: int

    @property
    def all_complete(self) -> bool:
        """Every known receiver reports a finished decode."""
        return self.active == 0 and self.complete > 0


def _loss_quantile(fresh: List[FeedbackReport]) -> float:
    """The :data:`QUANTILE` loss over still-decoding receivers.

    Weighted by each report's ``receivers`` count hint, so a proxy
    speaking for a thousand receivers outweighs a lone straggler
    proportionally.
    """
    points = sorted((r.loss, r.receivers) for r in fresh if not r.complete)
    if not points:
        return 0.0
    target = QUANTILE * sum(weight for _, weight in points)
    seen = 0.0
    for loss, weight in points:
        seen += weight
        if seen >= target:
            return loss
    return points[-1][0]


class AdaptivePolicy:
    """Aggregates receiver feedback into rate and schedule decisions.

    The report table keeps each receiver id's latest report, oldest
    heard first.  A receiver silent for :data:`STALE_AFTER` is
    forgotten, and the table never holds more than
    :data:`MAX_RECEIVERS`: a report from a new id at the cap evicts
    the receiver heard longest ago.

    A complete report ends a receiver's part in the serve only if the
    table heard that id decoding first: one whose first word is
    "complete" (a spoofed frame, or a receiver that finished before it
    ever reported) counts as neither complete nor active, so it cannot
    end a serve.
    """

    def __init__(self) -> None:
        #: receiver_id -> (report, timestamp of arrival, whether the
        #: table heard this id report a not-complete decode).
        self._reports: Dict[int, Tuple[FeedbackReport, float, bool]] = {}
        self._rate_scale = 1.0
        self.reports_seen = 0

    # -- ingest ----------------------------------------------------------------

    def observe(self, report: FeedbackReport, now: float = 0.0) -> None:
        """Fold one receiver's report in (latest per receiver wins)."""
        last = self._reports.pop(report.receiver_id, None)
        heard = last is not None and (last[2] or not last[0].complete)
        if len(self._reports) >= MAX_RECEIVERS:
            del self._reports[next(iter(self._reports))]
        self._reports[report.receiver_id] = (report, float(now), heard)
        self.reports_seen += 1

    def _fresh(self, now: float) -> List[FeedbackReport]:
        """Reports heard within :data:`STALE_AFTER` of ``now``, bar the
        complete ones of ids never heard decoding.

        Older ones are forgotten here, not just skipped (callers' clocks
        only move forward), so the table holds live receivers only
        however many ids frames have claimed.
        """
        cutoff = float(now) - STALE_AFTER
        self._reports = {rid: entry for rid, entry in self._reports.items()
                         if entry[1] >= cutoff}
        return [report for report, _, heard in self._reports.values()
                if heard or not report.complete]

    # -- levers ----------------------------------------------------------------

    def loss_estimate(self, now: float = 0.0) -> float:
        """Robust loss quantile over fresh, still-decoding receivers."""
        return _loss_quantile(self._fresh(now))

    def block_shares(self, deficits: Sequence[float],
                     block_ks: Sequence[int]) -> List[float]:
        """Per-block emission shares: proportional base + deficit chase.

        A pure function (no report state), shared with the swarm
        simulator's vectorized closed loop: with gain ``g`` block ``b``
        gets ``(1-g) * k_b/sum(k) + g * d_b/sum(d)`` of the stream;
        zero total deficit degrades to plain proportional striping.
        """
        total_k = float(sum(block_ks))
        base = [k / total_k for k in block_ks]
        total_d = float(sum(deficits))
        if total_d <= 0.0:
            return base
        g = SCHEDULE_GAIN
        return [(1.0 - g) * base[b] + g * deficits[b] / total_d
                for b in range(len(block_ks))]

    def decide(self, block_ks: Sequence[int],
               now: float = 0.0) -> PolicyDecision:
        """One policy step: every lever's value from one staleness pass.

        The schedule weights realise :meth:`block_shares`: the weighted
        schedule gives block ``b`` a ``k_b * w_b`` share, so the weight
        is ``share / base_share``.  The rate scale takes one EWMA step
        toward ``(1 - NOMINAL_LOSS) / (1 - loss)``, capped at
        :data:`MAX_SCALE`.
        """
        fresh = self._fresh(now)
        deficits = [0.0] * len(block_ks)
        for report in fresh:
            if report.complete:
                continue
            for block, deficit in report.lagging:
                if block < len(block_ks):
                    deficits[block] += deficit * report.receivers
        weights: Tuple[float, ...] = ()
        if any(d > 0 for d in deficits):
            total_k = float(sum(block_ks))
            weights = tuple(
                share * total_k / k
                for share, k in zip(self.block_shares(deficits, block_ks),
                                    block_ks))
        loss = min(_loss_quantile(fresh), 0.95)
        raw = min(MAX_SCALE, (1.0 - NOMINAL_LOSS) / (1.0 - loss))
        self._rate_scale += RATE_ALPHA * (raw - self._rate_scale)
        return PolicyDecision(
            rate_scale=self._rate_scale,
            weights=weights,
            active=sum(r.receivers for r in fresh if not r.complete),
            complete=sum(r.receivers for r in fresh if r.complete),
        )
