"""Reception-overhead sampling (Figure 2 and shared threshold pools).

A *decode threshold* is the number of distinct encoding packets, arriving
in uniformly random order, at which the decoder completes.  Figure 2
plots the distribution of ``threshold / k - 1`` ("length overhead") over
10,000 runs for Tornado A and B; the larger simulations reuse the same
samples through :class:`ThresholdPool` so that 10^4-receiver sweeps pay
the decoder cost only once per (code, trial), not per receiver — the
bootstrap approximation and its limit are documented on the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.codes.base import ErasureCode
from repro.errors import ParameterError
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.stats import SummaryStats, summarize


def sample_decode_thresholds(code: ErasureCode, trials: int,
                             rng: RngLike = None) -> np.ndarray:
    """Sample ``trials`` decode thresholds of a fixed-rate code, each
    over a random permutation of its ``n`` packets."""
    if trials <= 0:
        raise ParameterError("need at least one trial")
    if code.n is None:
        raise ParameterError(
            f"{code!r} is rateless: it has no n packets to permute")
    gen = ensure_rng(rng)
    thresholds = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        order = gen.permutation(code.n)
        thresholds[t] = code.packets_to_decode(order)
    return thresholds


def overhead_statistics(thresholds: Sequence[int], k: int) -> SummaryStats:
    """Summary of length overheads ``threshold/k - 1`` (paper Section 5.2)."""
    arr = np.asarray(thresholds, dtype=float)
    return summarize(arr / k - 1.0)


def percent_unfinished_curve(thresholds: Sequence[int], k: int,
                             overhead_grid: Optional[np.ndarray] = None):
    """Figure 2's series: % of runs not yet finished at each overhead.

    Returns ``(grid, percent_unfinished)`` where ``percent_unfinished[i]``
    is the share of trials whose threshold exceeds ``(1+grid[i]) * k``.
    """
    arr = np.asarray(thresholds, dtype=float)
    if overhead_grid is None:
        top = max(0.1, float(arr.max()) / k - 1.0)
        overhead_grid = np.linspace(0.0, top, 40)
    needed = (1.0 + overhead_grid) * k
    pct = [(arr > bound).mean() * 100.0 for bound in needed]
    return overhead_grid, np.asarray(pct)


@dataclass
class ThresholdPool:
    """An empirical pool of decode thresholds to bootstrap from.

    ``sample(count)`` draws i.i.d. thresholds with replacement; with a
    pool of a few hundred genuine decoder runs this reproduces the
    per-receiver threshold distribution faithfully for the averages and
    scales to arbitrarily many simulated receivers.  (Extreme tails
    beyond the pool's own max are clipped; increase ``trials`` for
    tail-sensitive runs.)
    """

    thresholds: np.ndarray
    k: int

    @classmethod
    def for_code(cls, code: ErasureCode, trials: int = 200,
                 rng: RngLike = None) -> "ThresholdPool":
        return cls(thresholds=sample_decode_thresholds(code, trials, rng),
                   k=code.k)

    @property
    def size(self) -> int:
        return int(self.thresholds.size)

    def sample(self, count: int, rng: RngLike = None) -> np.ndarray:
        gen = ensure_rng(rng)
        return gen.choice(self.thresholds, size=count, replace=True)

    def statistics(self) -> SummaryStats:
        return overhead_statistics(self.thresholds, self.k)
