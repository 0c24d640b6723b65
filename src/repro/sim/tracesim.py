"""Trace-driven reception comparison (Figure 6).

"Sampling from these loss traces, we simulate the process of downloading
files of various lengths using interleaving and Tornado codes.  The
trace sampling consists of choosing a random initial point within each
trace for each file size.  We plot the average reception efficiency for
120 receivers for various file sizes."

The trace set is the synthetic MBone substitute of
:mod:`repro.net.traces` (substitution documented in DESIGN.md section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.codes.interleaved import InterleavedCode
from repro.errors import DecodeFailure
from repro.net.traces import TraceSet
from repro.sim.overhead import ThresholdPool
from repro.sim.reception import fountain_packets_until, interleaved_packets_until
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class TraceResult:
    """Average reception efficiency of the receiver set for one code."""

    code_label: str
    file_size_kb: int
    average_efficiency: float
    completed_receivers: int
    total_receivers: int


def _trace_efficiency(label: str, k: int, traces: TraceSet, rng: RngLike,
                      packets_until: Callable[..., int]) -> TraceResult:
    """Run every trace receiver from a random offset and average ``k / total``.

    ``packets_until(model, gen)`` returns the packets the receiver took
    to decode, or raises :class:`DecodeFailure` (the receiver is then
    left out of the average).
    """
    gen = ensure_rng(rng)
    offsets = traces.random_offsets(gen)
    efficiencies = []
    for receiver in range(traces.num_receivers):
        model = traces.loss_model(receiver, int(offsets[receiver]))
        try:
            total = packets_until(model, gen)
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


def trace_fountain_efficiency(threshold_pool: ThresholdPool, n: int,
                              traces: TraceSet, rng: RngLike = None,
                              max_cycles: int = 400) -> TraceResult:
    """Average efficiency of a fountain code across all trace receivers."""
    def packets_until(model, gen):
        threshold = int(threshold_pool.sample(1, gen)[0])
        return fountain_packets_until(threshold, n, model, gen,
                                      max_cycles=max_cycles)

    return _trace_efficiency("tornado", threshold_pool.k, traces, rng,
                             packets_until)


def trace_interleaved_efficiency(code: InterleavedCode, traces: TraceSet,
                                 rng: RngLike = None,
                                 max_cycles: int = 400) -> TraceResult:
    """Average efficiency of an interleaved code across trace receivers."""
    def packets_until(model, gen):
        return interleaved_packets_until(code, model, gen,
                                         max_cycles=max_cycles)

    return _trace_efficiency(f"interleaved-k{code.block_k}", code.total_k,
                             traces, rng, packets_until)


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
        pool = pool_factory(k)
        results.append(trace_fountain_efficiency(pool, 2 * k, traces, gen))
        for block_k in block_sizes:
            code = InterleavedCode(k, block_k)
            results.append(trace_interleaved_efficiency(code, traces, gen))
    return results
