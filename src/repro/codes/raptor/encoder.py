"""Systematic Raptor droplet minting.

Every droplet — systematic ids included — is a weakened-distribution
XOR row over the ``k'`` *intermediate* packets.  Binding to a source
block therefore starts with the **systematic pre-solve**: find the
intermediate block ``C`` such that the precode constraints hold *and*
the droplet rows at the geometry's systematic ESIs reproduce the source
packets verbatim.  The greedy ESI scan at geometry build time made that
system invertible by construction, so the pre-solve is one decode of
the shared peeling engine — constraints in as zero-rhs equations, the
``k`` systematic rows in with the source packets as right-hand sides,
and the GF(2) inactivation finisher does the rest.

After the bind:

* ids ``0 .. k-1`` emit the source packets **verbatim** (their rows
  were pinned to the source by the pre-solve — a loss-free receiver
  pays zero decoding work);
* ids ``>= k`` synthesize *repair* droplets — capped-degree XOR
  combinations of ``C``, derived on demand from the shared
  :class:`~repro.codes.lt.encoder.DropletSpec` exactly like LT
  droplets, each a constant number of XORs.  That constant per-droplet
  cost is the linear-time half of the Raptor claim.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.codes.base import as_packet_block
from repro.codes.lt.encoder import LTEncoder
from repro.codes.peeling import (
    PeelingEngine,
    SolvePlan,
    factor_gf2,
    record_solve_plan,
)
from repro.codes.raptor.precode import RaptorGeometry
from repro.errors import DecodeFailure, ParameterError

__all__ = [
    "RaptorEncoder",
    "build_encode_plan",
    "build_generator",
    "presolve_intermediates",
]


def presolve_intermediates(geometry: RaptorGeometry,
                           source: np.ndarray) -> np.ndarray:
    """Solve for the ``(k', P)`` intermediate block of a source block.

    The joint system — ``r`` precode constraints with zero right-hand
    sides plus the ``k`` systematic droplet rows pinned to the source
    packets — is square and invertible by the geometry's construction,
    so the shared peeling engine (with its maximum-likelihood
    inactivation finisher) always completes it.
    """
    engine = PeelingEngine(geometry.intermediate_count,
                           payload_size=int(source.shape[1]),
                           source_count=geometry.intermediate_count,
                           inactivation_limit=geometry.intermediate_count)
    indptr, flat = geometry.constraint_rows()
    engine.add_equations(
        indptr, flat,
        np.zeros((indptr.size - 1, source.shape[1]), dtype=np.uint8))
    sys_flat, sys_indptr = geometry.spec.neighbour_block(
        geometry.systematic_esis)
    engine.add_equations(sys_indptr, sys_flat,
                         np.ascontiguousarray(source, dtype=np.uint8))
    engine.maybe_inactivate()
    if not engine.is_complete:  # pragma: no cover - construction invariant
        raise DecodeFailure(
            "systematic pre-solve did not complete",
            missing=geometry.intermediate_count
            - engine.source_known_count)
    return engine.source_data()


def _presolve_system(geometry: RaptorGeometry):
    """The pre-solve system as one equation CSR ``(indptr, flat, r)``:
    the ``r`` precode constraints first, then the ``k`` systematic
    droplet rows in source order."""
    con_indptr, con_flat = geometry.constraint_rows()
    sys_flat, sys_indptr = geometry.spec.neighbour_block(
        geometry.systematic_esis)
    indptr = np.concatenate([con_indptr,
                             int(con_indptr[-1]) + sys_indptr[1:]])
    return (indptr, np.concatenate([con_flat, sys_flat]),
            int(con_indptr.size - 1))


def build_encode_plan(geometry: RaptorGeometry) -> SolvePlan:
    """Factor a geometry's pre-solve system into a reusable solve plan.

    The joint system is fixed per *geometry*, not per payload — the
    linear-time property Raptor constructions (and RFC 5053's
    systematic index) are built around — so its elimination schedule
    can be recorded once and replayed against every block's source
    bytes as pure XOR passes.  Because the system is square and
    invertible by the greedy ESI scan's construction, the plan's output
    is byte-identical to :func:`presolve_intermediates` on every input.
    """
    indptr, flat, r = _presolve_system(geometry)
    rhs_rows = np.concatenate([
        np.full(r, -1, dtype=np.int64),           # constraints: zero rhs
        np.arange(geometry.k, dtype=np.int64)])   # systematic: source rows
    return record_solve_plan(geometry.intermediate_count, indptr, flat,
                             rhs_rows, num_inputs=geometry.k)


def _packed(values: List[int], words: int) -> np.ndarray:
    """Python-int bit rows as a ``(len(values), words)`` uint64 array
    (bit ``i`` in word ``i >> 6``, bit ``i & 63``)."""
    raw = b"".join(value.to_bytes(words * 8, "little") for value in values)
    return np.frombuffer(raw, dtype="<u8").reshape(len(values), words).copy()


def build_generator(geometry: RaptorGeometry) -> np.ndarray:
    """The ``(k', ceil(k / 64))`` bit matrix writing every intermediate
    as an XOR of source packets (:func:`_packed` rows: bit ``i`` of row
    ``c`` set when source packet ``i`` is in intermediate ``c``).

    One :func:`~repro.codes.peeling.factor_gf2` of the pre-solve system:
    a determined column is the XOR of the right-hand sides its
    ``col_expr`` names, directly or through the inactive columns it
    names — and only the systematic rows (bits ``r ..``) carry a
    non-zero right-hand side.  Equal to ``encode_plan().apply`` of the
    identity, without moving a payload row.
    """
    indptr, flat, r = _presolve_system(geometry)
    m, nodes = indptr.size - 1, geometry.intermediate_count
    fact = factor_gf2(np.repeat(np.arange(m), np.diff(indptr)), flat, m,
                      np.arange(nodes), nodes)
    words = (geometry.k + 63) >> 6
    exprs = [fact.col_expr[c] for c in range(nodes)]
    generator = _packed([rhs >> r for _, rhs in exprs], words)
    combos = fact.inactive_combos()
    named = np.unpackbits(
        _packed([inactive for inactive, _ in exprs],
                (len(combos) + 63) >> 6).view(np.uint8),
        axis=1, bitorder="little")
    for t, combo in enumerate(_packed([c >> r for c in combos], words)):
        generator[named[:, t].astype(bool)] ^= combo
    return generator


class RaptorEncoder:
    """Produces systematic Raptor droplets for one source block on demand.

    Parameters
    ----------
    geometry:
        The shared :class:`~repro.codes.raptor.precode.RaptorGeometry`.
    source:
        The ``(k, P)`` source packet block.
    plan:
        Optional recorded solve plan for this geometry (see
        :func:`build_encode_plan`); when given, the pre-solve is a pure
        XOR replay instead of a full engine decode.  :class:`RaptorCode
        <repro.codes.raptor.code.RaptorCode>` always supplies the
        process-cached plan; passing ``None`` keeps the engine path,
        which the differential tests use as the oracle.
    out:
        Optional ``(k', P)`` array the intermediates are written into
        (a transfer server's rows of one stacked slab); by default they
        get an array of their own.
    """

    def __init__(self, geometry: RaptorGeometry, source: np.ndarray,
                 plan: Optional[SolvePlan] = None,
                 out: Optional[np.ndarray] = None):
        self.geometry = geometry
        self.source = as_packet_block(source, geometry.k, dtype=np.uint8)
        if plan is not None:
            if (plan.num_inputs != geometry.k
                    or plan.num_nodes != geometry.intermediate_count):
                raise ParameterError(
                    f"solve plan shape ({plan.num_inputs} -> "
                    f"{plan.num_nodes}) does not match geometry "
                    f"({geometry.k} -> {geometry.intermediate_count})")
            intermediates = plan.apply(self.source)
        else:
            intermediates = presolve_intermediates(geometry, self.source)
        if out is not None:
            out[...] = intermediates
            intermediates = out
        self.intermediates = intermediates
        self._lt = LTEncoder(geometry.spec, self.intermediates)

    @property
    def k(self) -> int:
        return self.geometry.k

    @property
    def payload_size(self) -> int:
        return int(self.source.shape[1])

    def droplet_payload(self, droplet_id: int) -> np.ndarray:
        """Droplet ``droplet_id``: a source row below ``k``, a repair above."""
        if droplet_id < 0:
            raise ParameterError("droplet id must be >= 0")
        if droplet_id < self.geometry.k:
            return self.source[droplet_id].copy()
        return self._lt.droplet_payload(
            self.geometry.repair_base + (droplet_id - self.geometry.k))

    def payload_block(self, droplet_ids: Sequence[int]) -> np.ndarray:
        """Payloads for many droplets as one ``(len(ids), P)`` block.

        Systematic ids resolve as a single row gather from the source;
        repair ids batch through the LT encoder's vectorized path over
        the intermediates.
        """
        ids = np.asarray(droplet_ids, dtype=np.int64)
        if ids.size and int(ids.min()) < 0:
            raise ParameterError("droplet id must be >= 0")
        out = np.empty((ids.size, self.payload_size), dtype=np.uint8)
        systematic = ids < self.geometry.k
        if systematic.any():
            out[systematic] = self.source[ids[systematic]]
        repair = ~systematic
        if repair.any():
            out[repair] = self._lt.payload_block(
                self.geometry.repair_base
                + (ids[repair] - self.geometry.k))
        return out

    def droplets(self, start: int = 0) -> Iterator[np.ndarray]:
        """An endless stream of payloads from ``start`` — the fountain."""
        droplet_id = start
        while True:
            yield self.droplet_payload(droplet_id)
            droplet_id += 1
