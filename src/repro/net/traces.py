"""Synthetic MBone-like loss traces (substitute for Section 6.4's data).

The paper samples the Yajnik/Kurose/Towsley MBone traces [20]: hour-long
multicast broadcasts received by ~a dozen clients across the US, Europe
and Asia, with per-client loss from "less than 1% to over 30%", an
average around 18% over the sampled sections, and pronounced burstiness
("some clients experience large bursts of loss rates over significant
periods of time").

Those traces are not redistributable here, so we synthesise a trace set
with the same published characteristics (README, "Reproducing the
paper", lists the substitutions):

* per-receiver stationary loss drawn from a right-skewed Beta
  distribution calibrated to mean ~0.18 with support reaching past 0.30;
* short-timescale burstiness from a Gilbert-Elliott process (mean burst
  length several packets, as MBone studies report);
* occasional long outage periods for the worst receivers.

Figure 6's experiment then samples random starting offsets exactly as
the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.net.loss import GilbertElliottLoss, TraceLoss
from repro.utils.rng import RngLike, ensure_rng

#: Calibration targets quoted in paper Section 6.4.
MBONE_MEAN_LOSS = 0.18
MBONE_MIN_LOSS = 0.005
MBONE_MAX_LOSS = 0.45
MBONE_MEAN_BURST = 6.0
MBONE_OUTAGE_RATE = 0.0005     # outage starts per packet slot (worst hosts)
MBONE_OUTAGE_LENGTH = 400      # mean outage length in packets


@dataclass
class TraceSet:
    """A collection of per-receiver loss traces of equal length."""

    traces: List[np.ndarray]

    def __post_init__(self) -> None:
        if not self.traces:
            raise ParameterError("trace set cannot be empty")
        lengths = {t.size for t in self.traces}
        if len(lengths) != 1:
            raise ParameterError("all traces must have equal length")

    @property
    def num_receivers(self) -> int:
        return len(self.traces)

    @property
    def length(self) -> int:
        return int(self.traces[0].size)

    def loss_rates(self) -> np.ndarray:
        """Per-receiver empirical loss rates."""
        return np.array([t.mean() for t in self.traces])

    def average_loss_rate(self) -> float:
        return float(self.loss_rates().mean())

    def loss_model(self, receiver: int, offset: int = 0) -> TraceLoss:
        """A :class:`TraceLoss` replaying one receiver's trace."""
        return TraceLoss(self.traces[receiver], offset=offset)

    def random_offsets(self, rng: RngLike = None) -> np.ndarray:
        """One random starting offset per receiver (paper's sampling)."""
        gen = ensure_rng(rng)
        return gen.integers(0, self.length, size=self.num_receivers)


def _skewed_loss_rates(count: int, rng: np.random.Generator) -> np.ndarray:
    """Per-receiver loss rates: Beta-skewed, calibrated to MBone stats.

    Beta(1.6, 5.5) has mean ~0.225; scaled and clipped to land the
    ensemble mean near 0.18 with a tail past 0.30.
    """
    raw = rng.beta(1.6, 5.5, size=count) * (MBONE_MAX_LOSS / 0.5)
    return np.clip(raw, MBONE_MIN_LOSS, MBONE_MAX_LOSS)


def synthesize_mbone_traces(num_receivers: int = 120,
                            length: int = 200_000,
                            rng: RngLike = None) -> TraceSet:
    """Generate a synthetic MBone-like :class:`TraceSet`.

    Parameters follow the Figure 6 experiment: 120 receivers and traces
    long enough that every file size fits from a random offset.
    """
    if num_receivers <= 0 or length <= 0:
        raise ParameterError("need positive receiver count and length")
    gen = ensure_rng(rng)
    rates = _skewed_loss_rates(num_receivers, gen)
    traces: List[np.ndarray] = []
    for r, rate in enumerate(rates):
        # Bursty base process at the receiver's stationary rate.
        base = GilbertElliottLoss.from_loss_and_burst(
            float(rate), MBONE_MEAN_BURST)
        trace = base.losses(length, gen)
        # The worst third of receivers also suffer long outages.
        if rate > np.percentile(rates, 66):
            outage_starts = np.nonzero(
                gen.random(length) < MBONE_OUTAGE_RATE)[0]
            for start in outage_starts:
                span = int(gen.exponential(MBONE_OUTAGE_LENGTH))
                trace[start:start + span] = True
        traces.append(trace)
    return TraceSet(traces=traces)
