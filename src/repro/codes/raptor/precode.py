"""Shared Raptor geometry: precode constraints plus the weakened fountain.

Both ends of a Raptor transfer must agree on three deterministic
structures derived from the one ``(k, eps, c, delta, seed)`` tuple the
manifest carries:

* the **precode constraints** — ``r = r_ldpc + r_dense`` parity packets
  appended to the ``k`` source positions, giving ``k' = k + r``
  *intermediate* packets.  The ``r_ldpc = ceil(eps * k)`` sparse (LDPC)
  checks give every source position a small constant number of parity
  neighbours (degree 3, the standard LDPC choice), realised through the
  same configuration model that builds Tornado cascade graphs.  The
  ``r_dense`` half-density checks are the finite-length insurance (cf.
  RFC 6330's HDPC rows): a handful of dense rows crush the residual
  rank deficit the sparse rows leave behind, collapsing the decode
  overhead tail.  Each check owns a private parity column, so the
  constraint block always has full rank ``r``.
* the **weakened droplet distribution** — Shokrollahi's Raptor output
  distribution over the ``k'`` intermediates: degree-1 mass
  ``mu = eps/2 + (eps/2)^2``, the Tornado-style heavy tail
  ``1 / (i (i - 1))`` up to the constant cap ``D = ceil(4 (1+eps) /
  eps)``, and a spike ``1/D`` at ``D + 1``.  The cap makes every
  droplet O(1) work independent of ``k``; the mass the soliton would
  have put above ``D`` is exactly what the precode constraints repay at
  the decoder.  When the block is so small that the cap is vacuous
  (``k' <= D + 1``) the distribution degenerates to the plain robust
  soliton — that is where the ``c`` and ``delta`` knobs keep their LT
  meaning.
* the **systematic index** — the mapping from external droplet ids to
  internal droplet (ESI) rows.  Every emitted droplet, the first ``k``
  included, is a weakened-distribution XOR row over the intermediates;
  the encoder *pre-solves* the intermediate block so that the rows at
  the ``k`` selected ESIs reproduce the source packets verbatim.  The
  selection is a deterministic greedy scan at build time: walk ESIs
  ``0, 1, 2, ...`` and keep each row that grows the GF(2) rank of
  ``constraints + kept rows``, stopping at ``k`` rows — by construction
  the pre-solve system is then invertible.  The candidate rows come
  from the batched droplet derivation, a bounded chunk at a time, so a
  cold build costs its rank updates and little else.  Because every
  received droplet is a distribution row no matter which ids were
  lost, the receiver always faces the same constraints-plus-random-rows
  ensemble and the decode overhead is a small constant, independent of
  the loss pattern — the Raptor claim.

:func:`raptor_geometry` builds all three and is the single source of
truth for the encoder, the decoder and the property tests that pin
their agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from repro.codes.degree import DegreeDistribution
from repro.codes.lt.degree import robust_soliton
from repro.codes.lt.encoder import DropletSpec
from repro.codes.tornado.graph import _configuration_model
from repro.errors import ParameterError
from repro.utils.rng import spawn_rng

__all__ = ["RaptorGeometry", "raptor_geometry", "weakened_soliton"]

#: rng stream label for the precode graph (distinct from the droplet
#: stream folded into :class:`DropletSpec` and from simulation streams).
_PRECODE_STREAM = 0x4A97

#: rng stream label for the dense (HDPC-style) parity rows.
_DENSE_STREAM = 0x4A98

#: LDPC source-side degree: every source packet feeds this many parity
#: checks (fewer when the parity side is smaller than the degree).
_SOURCE_DEGREE = 3


def weakened_soliton(intermediate_count: int, eps: float,
                     c: float, delta: float) -> DegreeDistribution:
    """Shokrollahi's weakened droplet distribution over the intermediates.

    ``Omega(x) = (mu x + sum_{i=2}^{D} x^i / (i (i-1)) + x^{D+1} / D)
    / (mu + 1)`` with ``mu = eps/2 + (eps/2)^2`` and the constant cap
    ``D = ceil(4 (1 + eps) / eps)`` — droplet work becomes O(1) in
    ``k`` and the average degree stays near ``ln(1/eps)``.  The body is
    the same ``1 / (i (i-1))`` heavy tail the Tornado cascade uses, not
    the soliton: the soliton's large degree-2 share would flood the
    joint system with dependent rows.

    For blocks so small that the cap is vacuous (``intermediate_count
    <= D + 1``) weakening changes nothing, so the plain robust soliton
    is used instead; ``c`` and ``delta`` keep their usual LT roles
    there.
    """
    cap = int(math.ceil(4.0 * (1.0 + eps) / eps))
    if intermediate_count <= cap + 1:
        dist = robust_soliton(intermediate_count, c=c, delta=delta)
        if dist.max_degree > intermediate_count:
            dist = dist.truncated(intermediate_count)
        return dist
    mu = 0.5 * eps + (0.5 * eps) ** 2
    degrees = (1,) + tuple(range(2, cap + 1)) + (cap + 1,)
    weights = ((mu,)
               + tuple(1.0 / (i * (i - 1)) for i in range(2, cap + 1))
               + (1.0 / cap,))
    total = sum(weights)
    return DegreeDistribution(degrees,
                              tuple(w / total for w in weights))


def _dense_check_count(k: int, r_ldpc: int, delta: float) -> int:
    """How many half-density checks the precode appends.

    Enough rows that a random residual deficit survives them with
    probability at most ``min(delta, 1/k')`` — each dense row halves
    the chance an unlucky droplet set stays rank-deficient, so the
    budget is logarithmic and the encoding cost stays O(k) total.
    """
    return max(2,
               int(math.ceil(math.log2(1.0 / delta))),
               int(math.ceil(math.log2(k + r_ldpc + 1))))


#: dense scratch of one scan chunk, in 0/1 matrix cells (one byte each):
#: rows are drawn, and constraint rows packed, ``_SCAN_CHUNK_CELLS // k'``
#: at a time, so the scan's scratch is bounded by this (4 MiB, plus the
#: same again for ``neighbour_block``'s walk windows) at any ``k`` — a
#: whole-scan ``(k, k')`` matrix is 70 MB at k = 8192 and slower than
#: the per-ESI walk it would replace.  A k = 256 scan is one chunk.
_SCAN_CHUNK_CELLS = 1 << 22


def _packed_rows(indptr: np.ndarray, flat: np.ndarray,
                 width: int) -> List[int]:
    """CSR rows over ``width`` columns as Python integers (bit = column)."""
    count = indptr.size - 1
    dense = np.zeros((count, width), dtype=np.uint8)
    dense[np.repeat(np.arange(count), np.diff(indptr)),
          flat[indptr[0]:indptr[-1]]] = 1
    packed = np.packbits(dense, axis=1, bitorder="little")
    raw, step = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i * step:(i + 1) * step], "little")
            for i in range(count)]


def grows_rank(basis: Dict[int, int], row: int) -> bool:
    """Fold one GF(2) row (a Python integer, bit = column) into an
    echelon ``basis`` keyed by top bit; True when it raised the rank."""
    while row:
        top = row.bit_length() - 1
        pivot = basis.get(top)
        if pivot is None:
            basis[top] = row
            return True
        row ^= pivot
    return False


def _select_systematic(spec: DropletSpec, constraint_indptr: np.ndarray,
                       constraint_flat: np.ndarray, k: int) -> np.ndarray:
    """Greedy scan for the ``k`` ESIs that make the pre-solve invertible.

    Maintains a GF(2) echelon basis (one Python integer per pivot) over
    the ``k'`` intermediate columns, seeds it with the constraint rows,
    then walks ESIs in order keeping every row that increases the rank.
    Candidate rows are drawn a chunk at a time through
    :meth:`DropletSpec.neighbour_block` — what is still missing plus a
    little slack for the rows the echelon will reject — and packed into
    integers in one pass; only the rank updates run row by row.  Both
    ends run the identical scan, so the systematic index never travels
    on the wire.
    """
    basis: Dict[int, int] = {}
    chunk = max(1, _SCAN_CHUNK_CELLS // spec.k)
    for lo in range(0, constraint_indptr.size - 1, chunk):
        for row in _packed_rows(constraint_indptr[lo:lo + chunk + 1],
                                constraint_flat, spec.k):
            grows_rank(basis, row)

    chosen: List[int] = []
    esi = 0
    scan_limit = 4 * spec.k + 64
    while len(chosen) < k:
        if esi >= scan_limit:  # astronomically unlikely
            raise ParameterError(
                "systematic index scan did not converge; "
                "try a different seed")
        need = k - len(chosen)
        count = min(need + (need >> 3) + 8, chunk, scan_limit - esi)
        flat, indptr = spec.neighbour_block(np.arange(esi, esi + count))
        for row in _packed_rows(indptr, flat, spec.k):
            if grows_rank(basis, row):
                chosen.append(esi)
                if len(chosen) == k:
                    break
            esi += 1
    return np.asarray(chosen, dtype=np.int64)


@dataclass(frozen=True)
class RaptorGeometry:
    """Everything sender and receiver derive from ``(k, params, seed)``.

    Attributes
    ----------
    k, eps, c, delta, seed:
        The defining tuple (``eps`` sets the sparse expansion rate and
        the degree cap, ``delta`` the failure budget that sizes the
        dense checks, ``c``/``delta`` the small-block soliton shape).
    parity_indptr, parity_sources:
        CSR of the sparse precode graph: LDPC check ``j`` XORs source
        packets ``parity_sources[parity_indptr[j]:parity_indptr[j+1]]``.
    dense_indptr, dense_sources:
        CSR of the half-density checks, over the first ``k + r_ldpc``
        intermediate columns.
    systematic_esis:
        The ``k`` internal droplet rows (ESIs) whose payloads are the
        source packets verbatim — external id ``i < k`` maps to
        ``systematic_esis[i]``.
    spec:
        The weakened-distribution :class:`DropletSpec` over the ``k'``
        intermediates; every droplet row derives from it.
    """

    k: int
    eps: float
    c: float
    delta: float
    seed: int
    parity_indptr: np.ndarray
    parity_sources: np.ndarray
    dense_indptr: np.ndarray
    dense_sources: np.ndarray
    systematic_esis: np.ndarray
    spec: DropletSpec

    @property
    def parity_count(self) -> int:
        """``r_ldpc`` — how many sparse checks the precode appends."""
        return int(self.parity_indptr.size - 1)

    @property
    def dense_count(self) -> int:
        """``r_dense`` — how many half-density checks follow them."""
        return int(self.dense_indptr.size - 1)

    @property
    def intermediate_count(self) -> int:
        """``k' = k + r_ldpc + r_dense`` — the joint system's node count."""
        return self.spec.k

    @property
    def repair_base(self) -> int:
        """First internal ESI available to repair droplets (ids >= k)."""
        return int(self.systematic_esis[-1]) + 1

    def internal_esis(self, droplet_ids: np.ndarray) -> np.ndarray:
        """Map external droplet ids to internal droplet rows (ESIs).

        Ids below ``k`` route through the systematic index; ids at or
        above ``k`` continue the scan's ESI counter, so the two ranges
        never collide.
        """
        ids = np.asarray(droplet_ids, dtype=np.int64)
        esis = np.empty_like(ids)
        systematic = ids < self.k
        esis[systematic] = self.systematic_esis[ids[systematic]]
        esis[~systematic] = self.repair_base + (ids[~systematic] - self.k)
        return esis

    def constraint_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """All precode constraints as equation CSR ``(indptr, participants)``.

        Sparse checks first, dense checks after: row ``j`` states that
        its private parity column XOR its source-side neighbours is
        zero — the zero-right-hand-side equations the decoder installs
        up front, before any droplet arrives.
        """
        r_ldpc = self.parity_count
        r_dense = self.dense_count
        sizes = np.concatenate([1 + np.diff(self.parity_indptr),
                                1 + np.diff(self.dense_indptr)])
        indptr = np.zeros(r_ldpc + r_dense + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        flat = np.empty(int(indptr[-1]), dtype=np.int64)
        flat[indptr[:-1]] = self.k + np.arange(r_ldpc + r_dense)
        mask = np.ones(flat.size, dtype=bool)
        mask[indptr[:-1]] = False
        flat[mask] = np.concatenate([self.parity_sources,
                                     self.dense_sources])
        return indptr, flat


def raptor_geometry(k: int, eps: float = 0.05, c: float = 0.03,
                    delta: float = 0.1, seed: int = 0) -> RaptorGeometry:
    """Build the full shared geometry deterministically from the seed."""
    if k <= 0:
        raise ParameterError("k must be positive")
    if not 0.0 < eps <= 1.0:
        raise ParameterError(f"raptor eps must lie in (0, 1], got {eps!r}")
    if c <= 0.0:
        raise ParameterError(f"soliton c must be positive, got {c!r}")
    if not 0.0 < delta < 1.0:
        raise ParameterError(
            f"soliton delta must lie in (0, 1), got {delta!r}")
    k = int(k)
    r_ldpc = max(1, int(math.ceil(eps * k)))
    r_dense = _dense_check_count(k, r_ldpc, delta)
    rng = spawn_rng(int(seed) % 2 ** 32, _PRECODE_STREAM)
    graph = _configuration_model(
        k, r_ldpc,
        DegreeDistribution((min(_SOURCE_DEGREE, r_ldpc),), (1.0,)),
        rng)
    dense_rng = spawn_rng(int(seed) % 2 ** 32, _DENSE_STREAM)
    dense_rows = [np.nonzero(dense_rng.random(k + r_ldpc) < 0.5)[0]
                  for _ in range(r_dense)]
    dense_indptr = np.zeros(r_dense + 1, dtype=np.int64)
    np.cumsum([row.size for row in dense_rows], out=dense_indptr[1:])
    dense_sources = (np.concatenate(dense_rows).astype(np.int64)
                     if dense_rows else np.empty(0, dtype=np.int64))
    intermediate_count = k + r_ldpc + r_dense
    dist = weakened_soliton(intermediate_count, eps, c, delta)
    spec = DropletSpec(intermediate_count, dist, int(seed))
    geometry = RaptorGeometry(
        k=k, eps=float(eps), c=float(c), delta=float(delta),
        seed=int(seed),
        parity_indptr=graph.right_indptr,
        parity_sources=graph.edge_left,
        dense_indptr=dense_indptr,
        dense_sources=dense_sources,
        systematic_esis=np.empty(0, dtype=np.int64),
        spec=spec,
    )
    indptr, flat = geometry.constraint_rows()
    esis = _select_systematic(spec, indptr, flat, k)
    return replace(geometry, systematic_esis=esis)
