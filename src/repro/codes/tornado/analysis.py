"""Density-evolution analysis of peeling decoding.

Companion to :mod:`repro.codes.tornado.design`: where ``design`` *builds*
degree distributions by LP, this module *evaluates* them — asymptotic
thresholds via the density-evolution recursion of Luby et al. [9]
("Analysis of Random Processes via And-Or Tree Evaluation") and
finite-length thresholds via direct single-graph peeling simulation.
The presets of :mod:`repro.codes.tornado.presets` were selected with
these tools, and ``benchmarks/bench_ablation_degrees.py`` re-runs a
small version of the selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.codes.tornado.degree import DegreeDistribution
from repro.codes.tornado.design import node_to_edge_fractions, rho_polynomial
from repro.codes.tornado.graph import BipartiteGraph, _configuration_model
from repro.errors import ParameterError
from repro.utils.rng import RngLike, ensure_rng


def density_evolution_converges(dist: DegreeDistribution, delta: float,
                                beta: float = 0.5,
                                max_iterations: int = 20_000,
                                tolerance: float = 1e-9) -> bool:
    """Whether loss fraction ``delta`` is asymptotically recoverable.

    Iterates ``x <- delta * lambda(1 - rho(1 - x))`` from ``x = delta``;
    convergence to zero means peeling recovers all message nodes on the
    infinite random graph with all check values known.
    """
    if not 0 < delta < 1:
        raise ParameterError("delta must lie in (0, 1)")
    degrees, lam = node_to_edge_fractions(dist)
    avg_right = dist.average_degree / beta
    x = delta
    for _ in range(max_iterations):
        y = 1 - rho_polynomial(avg_right, 1 - np.asarray([x]))[0]
        nxt = delta * float(sum(
            f * y ** (d - 1) for d, f in zip(degrees, lam)))
        if nxt < tolerance:
            return True
        if abs(nxt - x) < tolerance * 1e-3:
            return False
        x = nxt
    return x < 1e-6


def asymptotic_threshold(dist: DegreeDistribution, beta: float = 0.5,
                         tolerance: float = 1e-4) -> float:
    """Largest asymptotically recoverable loss fraction (bisection)."""
    lo, hi = 0.0, beta
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if density_evolution_converges(dist, mid, beta):
            lo = mid
        else:
            hi = mid
    return lo


def peel_single_graph(graph: BipartiteGraph,
                      lost_lefts: np.ndarray) -> int:
    """Peel one graph with all checks known; return unrecovered count.

    The elementary experiment behind every threshold number in this
    package: message (left) nodes in ``lost_lefts`` are erased, all
    check (right) values are available, and the substitution rule runs
    to quiescence.
    """
    left_size, right_size = graph.left_size, graph.right_size
    unknown = np.zeros(left_size, dtype=bool)
    unknown[lost_lefts] = True
    counts = np.zeros(right_size, dtype=np.int64)
    np.add.at(counts, graph.edge_right,
              unknown[graph.edge_left].astype(np.int64))
    order = np.argsort(graph.edge_left, kind="stable")
    rights_by_left = graph.edge_right[order]
    left_indptr = np.zeros(left_size + 1, dtype=np.int64)
    np.cumsum(np.bincount(graph.edge_left, minlength=left_size),
              out=left_indptr[1:])
    frontier = list(np.nonzero(counts == 1)[0])
    while frontier:
        right = frontier.pop()
        if counts[right] != 1:
            continue
        lo, hi = graph.right_indptr[right], graph.right_indptr[right + 1]
        lefts = graph.edge_left[lo:hi]
        target = lefts[unknown[lefts]]
        if target.size != 1:
            continue
        left = int(target[0])
        unknown[left] = False
        for r in rights_by_left[left_indptr[left]:left_indptr[left + 1]]:
            counts[r] -= 1
            if counts[r] == 1:
                frontier.append(int(r))
    return int(unknown.sum())


@dataclass(frozen=True)
class FiniteLengthThreshold:
    """Result of a finite-length threshold search."""

    left_size: int
    threshold: float
    success_target: float
    trials_per_point: int


def finite_length_threshold(dist: DegreeDistribution, left_size: int,
                            beta: float = 0.5,
                            success_target: float = 0.75,
                            trials: int = 12,
                            rng: RngLike = None) -> FiniteLengthThreshold:
    """Empirical peeling threshold of a finite graph by bisection.

    Finds the largest loss fraction at which at least ``success_target``
    of random (graph, loss) trials recover every message node.  This is
    the number that actually governs reception overhead at a given k —
    finite graphs fall measurably short of their asymptotic threshold,
    which is why the preset selection tunes on it.
    """
    gen = ensure_rng(rng)
    right_size = max(1, int(round(left_size * beta)))

    def success_rate(delta: float) -> float:
        wins = 0
        for t in range(trials):
            graph = _configuration_model(left_size, right_size, dist, gen)
            lost = gen.permutation(left_size)[:int(delta * left_size)]
            if peel_single_graph(graph, lost) == 0:
                wins += 1
        return wins / trials

    lo, hi = 0.05, beta
    for _ in range(8):
        mid = (lo + hi) / 2
        if success_rate(mid) >= success_target:
            lo = mid
        else:
            hi = mid
    return FiniteLengthThreshold(left_size=left_size, threshold=lo,
                                 success_target=success_target,
                                 trials_per_point=trials)


def overhead_lower_bound(dist: DegreeDistribution, beta: float = 0.5,
                         stretch: float = 2.0) -> float:
    """Asymptotic reception-overhead floor implied by the DE threshold.

    Receiving ``(1+eps)k`` of ``stretch*k`` packets leaves each node
    unknown with probability ``1 - (1+eps)/stretch``; the first cascade
    graph peels iff that is below the DE threshold, giving
    ``eps >= stretch*(1 - threshold) - 1`` (= ``1 - 2*threshold`` at
    stretch 2).
    """
    threshold = asymptotic_threshold(dist, beta)
    return max(0.0, stretch * (1 - threshold) - 1)
