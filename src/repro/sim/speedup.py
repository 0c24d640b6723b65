"""Table 4: speedup of Tornado decoding over comparable interleaved codes.

The paper's derivation, reproduced step by step:

1. For each loss probability, find the **maximum number of blocks** the
   file can be split into while the interleaved receiver's reception
   overhead stays below a bound except with probability < 1% (the bound
   is Tornado A's own 99th-percentile overhead, which the paper rounds
   to 0.07 for its codes; we use our measured value by default so the
   comparison stays apples-to-apples).
2. Price the interleaved decode as ``num_blocks * c * block_k^2`` with
   ``c`` fitted on this machine (:class:`~repro.sim.timemodel.TimingModel`).
3. Divide by the measured Tornado decode time.

More blocks mean faster RS decoding but worse reception overhead — the
search finds the best decode time the interleaved approach can buy at
equal reliability, which is exactly what makes the comparison fair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import DecodeFailure
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss
from repro.sim.timemodel import TimingModel
from repro.sim.transfer import SlotWindow, packets_until_decode
from repro.utils.rng import RngLike, ensure_rng, spawn_rng


def overhead_percentile(window: SlotWindow, p: float, trials: int,
                        percentile: float, rng: RngLike = None) -> float:
    """Empirical reception-overhead percentile of an interleaved
    carousel on Bernoulli(p) channels (every block needs its ``k_b``)."""
    gen = ensure_rng(rng)
    loss = BernoulliLoss(p)
    need = window.codec.plan.block_ks
    overheads = []
    for _ in range(trials):
        try:
            total = packets_until_decode(window, need,
                                         LossyChannel(loss, gen))
        except DecodeFailure:
            overheads.append(np.inf)
            continue
        overheads.append(total / window.codec.total_k - 1.0)
    return float(np.percentile(overheads, percentile))


def max_blocks_within_overhead(total_k: int, p: float,
                               overhead_bound: float,
                               trials: int = 120,
                               percentile: float = 99.0,
                               rng: RngLike = None) -> int:
    """Largest block count meeting the reliability criterion.

    Binary search over the number of blocks: more blocks worsen the
    99th-percentile overhead monotonically (coupon collection over more
    blocks), so bisection applies.  Returns at least 1 — a single block
    is MDS over the whole file and always meets any bound >= 0 under the
    carousel... except at extreme loss where even one block overshoots;
    then 1 is still returned as the paper's tables do not go below one
    block.
    """
    gen = ensure_rng(rng)
    lo, hi = 1, max(1, total_k // 2)
    # Exponential probe upward from 1 to bracket the feasibility edge.
    best = 1
    probe = 2
    while probe <= hi:
        window = SlotWindow(total_k, -(-total_k // probe), "rs")
        if overhead_percentile(window, p, trials, percentile,
                               spawn_rng(gen, probe)) <= overhead_bound:
            best = probe
            probe *= 2
        else:
            hi = probe - 1
            break
    else:
        return hi if best >= hi else best
    lo = best
    while lo < hi:
        mid = (lo + hi + 1) // 2
        window = SlotWindow(total_k, -(-total_k // mid), "rs")
        if overhead_percentile(window, p, trials, percentile,
                               spawn_rng(gen, 10_000 + mid)) <= overhead_bound:
            lo = mid
        else:
            hi = mid - 1
    return lo


@dataclass
class SpeedupEntry:
    """One Table 4 cell with its intermediate quantities."""

    file_size_kb: int
    loss_probability: float
    num_blocks: int
    block_k: int
    interleaved_decode_seconds: float
    tornado_decode_seconds: float

    @property
    def speedup(self) -> float:
        if self.tornado_decode_seconds <= 0:
            return float("inf")
        return self.interleaved_decode_seconds / self.tornado_decode_seconds


def speedup_table_entry(total_k: int, p: float, overhead_bound: float,
                        timing: TimingModel,
                        tornado_decode_seconds: float,
                        trials: int = 120,
                        rng: RngLike = None) -> SpeedupEntry:
    """Compute one cell of Table 4."""
    blocks = max_blocks_within_overhead(total_k, p, overhead_bound,
                                        trials=trials, rng=rng)
    block_k = -(-total_k // blocks)
    return SpeedupEntry(
        file_size_kb=total_k,
        loss_probability=p,
        num_blocks=blocks,
        block_k=block_k,
        interleaved_decode_seconds=timing.interleaved_decode_time(
            total_k, blocks),
        tornado_decode_seconds=tornado_decode_seconds,
    )
