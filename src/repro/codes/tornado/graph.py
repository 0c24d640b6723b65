"""Cascade graph construction for Tornado codes.

The encoding is a node-indexed vector of ``n`` packets laid out as::

    [ source (k) | layer 1 | layer 2 | ... | layer t | cap ]

Layer ``i+1`` values are XORs over a sparse random bipartite graph from
layer ``i`` (the first graph's left side is the source itself).  Layer
sizes shrink geometrically by ``beta`` (beta = 1/2 gives the paper's
stretch factor 2) until they reach ``cap_threshold``; the remaining
redundancy budget becomes the *cap* — a small systematic Reed-Solomon
code over the last graph layer, playing the role of the conventional code
that terminates the cascade in Luby et al. [8].

Both sender and receiver rebuild an identical structure from ``(k,
parameters, seed)``, which is the paper's assumption that "the source and
the clients have agreed to the graph structure in advance".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.codes.reed_solomon import ReedSolomonCode
from repro.codes.tornado.degree import DegreeDistribution
from repro.errors import ParameterError
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class BipartiteGraph:
    """A sparse bipartite graph stored as deduplicated edge arrays.

    ``edge_left[e]`` / ``edge_right[e]`` give edge endpoints in *local*
    numbering (left in ``[0, left_size)``, right in ``[0, right_size)``).
    Edges are sorted by right endpoint and ``right_indptr`` is the CSR
    boundary array, so "XOR all left neighbours of each right node" is a
    single ``np.bitwise_xor.reduceat``.
    """

    left_size: int
    right_size: int
    edge_left: np.ndarray
    edge_right: np.ndarray
    right_indptr: np.ndarray

    @property
    def edge_count(self) -> int:
        return int(self.edge_left.shape[0])

    @property
    def average_left_degree(self) -> float:
        return self.edge_count / self.left_size

    def right_degrees(self) -> np.ndarray:
        return np.diff(self.right_indptr)


def _quota_degrees(dist: DegreeDistribution, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Degrees matching the pmf with *exact* counts (quota assignment).

    Sampling degrees i.i.d. adds multinomial noise to the realised degree
    sequence; at the layer sizes of a cascade (hundreds of nodes) that
    noise measurably widens the reception-overhead distribution.  Real
    Tornado implementations fix the degree counts and randomise only the
    assignment of degrees to nodes, which is what we do: ``round(p_i *
    count)`` nodes of each degree, remainders resolved by largest
    fractional part, then a random shuffle.
    """
    probs = np.asarray(dist.probabilities, dtype=float)
    degrees = np.asarray(dist.degrees, dtype=np.int64)
    counts = np.floor(probs * count).astype(np.int64)
    remainder = count - int(counts.sum())
    if remainder > 0:
        fractional = probs * count - np.floor(probs * count)
        for i in np.argsort(-fractional)[:remainder]:
            counts[i] += 1
    out = np.repeat(degrees, counts)
    rng.shuffle(out)
    return out


def _configuration_model(left_size: int, right_size: int,
                         degree_dist: DegreeDistribution,
                         rng: np.random.Generator) -> BipartiteGraph:
    """Build a random bipartite graph with the given left-degree pmf.

    Left stubs are drawn from ``degree_dist``; right stubs are spread as
    evenly as possible (near-regular check degrees); a random matching of
    stubs produces the edges.  Parallel edges — which would cancel under
    XOR — are removed, slightly perturbing low-order degree statistics,
    which is standard practice and harmless at these densities.
    """
    if left_size <= 0 or right_size <= 0:
        raise ParameterError("graph sides must be non-empty")
    dist = degree_dist
    if dist.max_degree > right_size:
        dist = dist.truncated(right_size)
    left_degrees = _quota_degrees(dist, left_size, rng)
    edge_count = int(left_degrees.sum())
    # Left endpoint of every stub.
    lefts = np.repeat(np.arange(left_size, dtype=np.int64), left_degrees)
    # Right stubs: evenly spread degrees, then a random matching.
    base, extra = divmod(edge_count, right_size)
    right_degrees = np.full(right_size, base, dtype=np.int64)
    if extra:
        right_degrees[rng.choice(right_size, size=extra, replace=False)] += 1
    rights = np.repeat(np.arange(right_size, dtype=np.int64), right_degrees)
    rng.shuffle(rights)
    # Deduplicate parallel edges.
    keys = rights * left_size + lefts
    keys = np.unique(keys)
    rights = keys // left_size
    lefts = keys % left_size
    # np.unique sorts, so edges are already grouped by right endpoint.
    counts = np.bincount(rights, minlength=right_size)
    indptr = np.zeros(right_size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return BipartiteGraph(
        left_size=left_size,
        right_size=right_size,
        edge_left=lefts.astype(np.int64),
        edge_right=rights.astype(np.int64),
        right_indptr=indptr,
    )


@dataclass
class CascadeStructure:
    """The full Tornado structure: layers, graphs and the cap code.

    Attributes
    ----------
    k, n:
        Source and total encoding packet counts.
    layer_sizes:
        Sizes of the source layer and every graph layer,
        ``[k, |L1|, ..., |Lt|]``.
    layer_offsets:
        Global node index where each layer starts (source at 0).
    graphs:
        ``graphs[i]`` connects layer ``i`` (left) to layer ``i+1`` (right).
    cap_offset, cap_size:
        Node range of the cap's redundant packets.
    cap_code:
        Systematic RS code over the last graph layer; ``None`` only when
        the redundancy budget left no room for a cap (never happens for
        the supported parameters, asserted at build time).
    """

    k: int
    n: int
    layer_sizes: List[int]
    layer_offsets: List[int]
    graphs: List[BipartiteGraph]
    cap_offset: int
    cap_size: int
    cap_code: ReedSolomonCode

    @property
    def last_layer_offset(self) -> int:
        return self.layer_offsets[-1]

    @property
    def last_layer_size(self) -> int:
        return self.layer_sizes[-1]

    @property
    def total_edges(self) -> int:
        return sum(g.edge_count for g in self.graphs)

    def cap_member_indices(self) -> np.ndarray:
        """Global node indices participating in the cap RS code."""
        last = np.arange(self.last_layer_offset,
                         self.last_layer_offset + self.last_layer_size)
        cap = np.arange(self.cap_offset, self.cap_offset + self.cap_size)
        return np.concatenate([last, cap])


def plan_layer_sizes(k: int, stretch: float, beta: float,
                     cap_threshold: int,
                     last_beta: Optional[float] = None) -> Tuple[List[int], int]:
    """Choose cascade layer sizes and the cap size.

    Layers shrink by ``beta`` until at most ``cap_threshold``; whatever
    redundancy budget remains (so that ``n = round(stretch*k)`` exactly)
    becomes the cap.  If rounding leaves the cap degenerately small the
    last graph layer is dropped and its budget folded into the cap.

    ``last_beta`` (defaults to ``beta``) sets the shrink factor of the
    *final* graph only.  Using a smaller value (e.g. 1/3) makes the last
    layer small relative to the remaining redundancy budget, giving the
    cap's Reed-Solomon code a large quorum margin: the cap then never
    gates decoding, which removes the dominant finite-length fluctuation
    of the deep cascade end.
    """
    if k <= 0:
        raise ParameterError("k must be positive")
    if not 0 < beta < 1:
        raise ParameterError("beta must lie in (0, 1)")
    if stretch <= 1:
        raise ParameterError("stretch factor must exceed 1")
    if last_beta is None:
        last_beta = beta
    if not 0 < last_beta < 1:
        raise ParameterError("last_beta must lie in (0, 1)")
    n = int(round(stretch * k))
    sizes = [k]
    while sizes[-1] > cap_threshold:
        shrink = beta if sizes[-1] * beta > cap_threshold else last_beta
        nxt = max(1, int(np.ceil(sizes[-1] * shrink)))
        if sum(sizes) + nxt >= n:
            break
        sizes.append(nxt)
    cap = n - sum(sizes)
    # The cap must be able to protect the last graph layer against loss;
    # insist on at least half that layer's size worth of redundancy.
    while len(sizes) > 1 and cap < max(2, sizes[-1] // 2):
        cap += sizes.pop()
    if cap < 1:
        raise ParameterError(
            f"stretch {stretch} leaves no redundancy for k={k}")
    return sizes, cap


def build_cascade(k: int,
                  degree_dist: DegreeDistribution,
                  stretch: float = 2.0,
                  beta: float = 0.5,
                  cap_threshold: int = 128,
                  rng: RngLike = None,
                  deep_degree_dist: Optional[DegreeDistribution] = None,
                  last_beta: Optional[float] = None) -> CascadeStructure:
    """Construct the full cascade deterministically from the rng seed.

    ``deep_degree_dist`` optionally gives the graphs *below* the first one
    their own (typically denser) degree distribution: the deep layers hold
    only ~k packets in total, so extra edges there cost little decode time
    while buying the small graphs a threshold safety margin against their
    larger relative sampling noise.
    """
    gen = ensure_rng(rng)
    sizes, cap_size = plan_layer_sizes(k, stretch, beta, cap_threshold,
                                       last_beta=last_beta)
    offsets = list(np.concatenate([[0], np.cumsum(sizes)]))
    offsets = [int(o) for o in offsets[:-1]]
    if deep_degree_dist is None:
        deep_degree_dist = degree_dist
    graphs = [
        _configuration_model(sizes[i], sizes[i + 1],
                             degree_dist if i == 0 else deep_degree_dist,
                             gen)
        for i in range(len(sizes) - 1)
    ]
    cap_offset = int(sum(sizes))
    last_layer = sizes[-1]
    cap_code = ReedSolomonCode(last_layer, last_layer + cap_size,
                               construction="cauchy")
    n = cap_offset + cap_size
    return CascadeStructure(
        k=k,
        n=n,
        layer_sizes=sizes,
        layer_offsets=offsets,
        graphs=graphs,
        cap_offset=cap_offset,
        cap_size=cap_size,
        cap_code=cap_code,
    )
