"""Multi-receiver and file-size scaling experiments (Figures 4 and 5).

Receivers are i.i.d. — each reads the shared carousel
(:class:`~repro.sim.transfer.SlotWindow`) through a loss channel of its
own — so a population of ``r`` receivers is ``r`` independent draws of
"total packets received until decode"
(:func:`~repro.sim.transfer.packets_until_decode`).  We first build an
:class:`EfficiencyPool` of a few hundred genuine per-receiver
simulations, then bootstrap arbitrary receiver-set sizes from it:

* *average* reception efficiency = mean of ``K / total``;
* *worst-case* (the curves that fall with receiver count in Figure 4)
  = expectation of ``min`` over ``r`` draws, averaged over experiments.

The pool bootstrap is what makes the 10^4-receiver points tractable; its
fidelity limit is the tail, clipped at the pool's own max
(:class:`~repro.sim.overhead.ThresholdPool`), so pool sizes are
parameters everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import ParameterError
from repro.net.channel import LossyChannel
from repro.net.loss import LossModel
from repro.sim.overhead import ThresholdPool
from repro.sim.transfer import SlotWindow, packets_until_decode
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class EfficiencyPool:
    """Empirical pool of per-receiver total-received packet counts."""

    totals: np.ndarray
    k: int

    @property
    def efficiencies(self) -> np.ndarray:
        return self.k / self.totals

    def average_efficiency(self) -> float:
        return float(self.efficiencies.mean())

    def worst_case(self, receivers: int, experiments: int,
                   rng: RngLike = None) -> float:
        """Mean over experiments of the worst efficiency among receivers."""
        gen = ensure_rng(rng)
        draws = gen.choice(self.totals, size=(experiments, receivers),
                           replace=True)
        return float((self.k / draws.max(axis=1)).mean())

    def average_over_receivers(self, receivers: int, experiments: int,
                               rng: RngLike = None) -> float:
        """Mean over experiments of the mean efficiency among receivers."""
        gen = ensure_rng(rng)
        draws = gen.choice(self.totals, size=(experiments, receivers),
                           replace=True)
        return float((self.k / draws).mean())


def _pool(window: SlotWindow, loss: LossModel, needs: Iterable[ArrayLike],
          gen: np.random.Generator) -> EfficiencyPool:
    """One entry per need: a receiver through a fresh channel."""
    totals = np.array([
        packets_until_decode(window, need, LossyChannel(loss, gen))
        for need in needs], dtype=np.int64)
    return EfficiencyPool(totals=totals, k=window.codec.total_k)


def build_fountain_pool(threshold_pool: ThresholdPool, window: SlotWindow,
                        loss: LossModel, pool_size: int = 300,
                        rng: RngLike = None) -> EfficiencyPool:
    """Pool for a fountain code on a lossy carousel.

    Each entry pairs a fresh decode threshold with a fresh loss pattern.
    """
    gen = ensure_rng(rng)
    return _pool(window, loss, threshold_pool.sample(pool_size, gen), gen)


def build_interleaved_pool(window: SlotWindow, loss: LossModel,
                           pool_size: int = 300,
                           rng: RngLike = None) -> EfficiencyPool:
    """Pool for an interleaved block code on its interleaved carousel:
    every block needs its own ``k_b`` (MDS)."""
    need = window.codec.plan.block_ks
    return _pool(window, loss, [need] * pool_size, ensure_rng(rng))


@dataclass
class ScalingResult:
    """One curve point: efficiencies at a receiver-set size."""

    receivers: int
    average: float
    worst: float


def scaling_experiment(pool: EfficiencyPool,
                       receiver_counts: Sequence[int],
                       experiments: int = 100,
                       rng: RngLike = None) -> List[ScalingResult]:
    """Figure 4's sweep: worst-case efficiency vs receiver-set size."""
    gen = ensure_rng(rng)
    results = []
    for r in receiver_counts:
        if r <= 0:
            raise ParameterError("receiver counts must be positive")
        results.append(ScalingResult(
            receivers=int(r),
            average=pool.average_over_receivers(int(r), experiments, gen),
            worst=pool.worst_case(int(r), experiments, gen),
        ))
    return results
