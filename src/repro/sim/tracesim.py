"""Trace-driven reception comparison (Figure 6).

"Sampling from these loss traces, we simulate the process of downloading
files of various lengths using interleaving and Tornado codes.  The
trace sampling consists of choosing a random initial point within each
trace for each file size.  We plot the average reception efficiency for
120 receivers for various file sizes."

The trace set is the synthetic MBone substitute of
:mod:`repro.net.traces` (README, "Reproducing the paper", lists the
substitution).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import DecodeFailure
from repro.net.channel import LossyChannel
from repro.net.traces import TraceSet
from repro.sim.overhead import ThresholdPool
from repro.sim.transfer import SlotWindow, packets_until_decode
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class TraceResult:
    """Average reception efficiency of the receiver set for one code."""

    code_label: str
    file_size_kb: int
    average_efficiency: float
    completed_receivers: int
    total_receivers: int


def _trace_efficiency(label: str, window: SlotWindow, traces: TraceSet,
                      rng: RngLike,
                      need: Callable[[np.random.Generator], ArrayLike]
                      ) -> TraceResult:
    """Run every trace receiver from a random offset and average ``k / total``.

    Each receiver reads ``window`` through a channel over its own trace
    and needs ``need(gen)`` distinct packets per block; one that does
    not get there (:class:`DecodeFailure`) is left out of the average.
    """
    gen = ensure_rng(rng)
    k = window.codec.total_k
    offsets = traces.random_offsets(gen)
    efficiencies = []
    for receiver in range(traces.num_receivers):
        channel = LossyChannel(
            traces.loss_model(receiver, int(offsets[receiver])), gen)
        try:
            total = packets_until_decode(window, need(gen), channel)
        except DecodeFailure:
            continue
        efficiencies.append(k / total)
    return TraceResult(
        code_label=label,
        file_size_kb=k,
        average_efficiency=float(np.mean(efficiencies)) if efficiencies else 0.0,
        completed_receivers=len(efficiencies),
        total_receivers=traces.num_receivers,
    )


def trace_fountain_efficiency(threshold_pool: ThresholdPool,
                              window: SlotWindow, traces: TraceSet,
                              rng: RngLike = None) -> TraceResult:
    """Average efficiency of a fountain code across all trace receivers:
    each needs a fresh draw from ``threshold_pool``."""
    return _trace_efficiency(
        "tornado", window, traces, rng,
        lambda gen: int(threshold_pool.sample(1, gen)[0]))


def trace_interleaved_efficiency(window: SlotWindow, traces: TraceSet,
                                 rng: RngLike = None) -> TraceResult:
    """Average efficiency of an interleaved code across trace receivers:
    each needs every block's ``k_b``."""
    need = window.codec.plan.block_ks
    return _trace_efficiency(
        f"interleaved-k{window.codec.plan.block_packets}", window, traces,
        rng, lambda gen: need)


def trace_experiment(file_sizes_kb: Sequence[int],
                     pool_factory: Callable[[int], ThresholdPool],
                     traces: TraceSet,
                     block_sizes: Sequence[int] = (20, 50),
                     rng: RngLike = None) -> List[TraceResult]:
    """Figure 6: efficiency vs file size on trace data, all codes.

    ``pool_factory(k)`` supplies a Tornado threshold pool per file size
    (the runner caches them).
    """
    gen = ensure_rng(rng)
    results: List[TraceResult] = []
    for size_kb in file_sizes_kb:
        k = int(size_kb)  # 1 KB packets: k packets per size_kb
        results.append(trace_fountain_efficiency(
            pool_factory(k), SlotWindow(k, k, "tornado-a"), traces, gen))
        for block_k in block_sizes:
            results.append(trace_interleaved_efficiency(
                SlotWindow(k, block_k, "rs"), traces, gen))
    return results
