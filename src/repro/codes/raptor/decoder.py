"""Two-stage Raptor decoder on the shared peeling engine.

A :class:`~repro.codes.lt.decoder.LTDecoder` over the geometry's
droplet spec — intake, dedup, reception counters and the
``min_additional_packets`` rank bound are the LT decoder's own — whose
one :class:`~repro.codes.peeling.PeelingEngine` solves the joint
system: the engine's nodes are the ``k'`` intermediates and two
kinds of equations populate it:

* the ``r`` **precode constraints** — sparse LDPC checks and the
  half-density tail-insurance checks, each ``{parity} ∪ neighbours``
  with a zero right-hand side — installed up front at construction,
  before any droplet arrives, through the same batched
  :meth:`~repro.codes.peeling.PeelingEngine.add_equations` ingest the
  droplets use.  Feeding them as (zero-rhs) dynamic rows rather than
  through ``load_static_equations`` keeps the engine on its packed
  bitmatrix fast path — wave peeling and lazy decode both operate on
  the one dynamic store.
* received **droplets** — every external id maps through the
  geometry's systematic index to an internal droplet row (ESI), and
  the row's weakened-distribution neighbour set regenerates locally
  from the shared spec, exactly like an LT droplet.  Systematic ids
  (< ``k``) are no different structurally; their payloads just happen
  to be source packets verbatim, which the decoder banks in a side
  cache — and while a block has seen nothing *but* systematic ids, the
  bank is all it touches: the rows are only *held* (ids; the payloads
  already sit in the cache).  The first repair droplet hands every
  held row plus itself to the LT intake as one batch — which enters it
  there and then on an engine that peels on arrival, and on a lazy
  engine keeps holding it, repairs and all, until the system is square
  (:meth:`~repro.codes.lt.decoder.LTDecoder._take`).  Either way the
  engine ends up with exactly the rows eager intake would have given
  it, and a loss-free receiver completes without ever building a
  droplet equation.

Because every droplet row is drawn from the same distribution no
matter which ids were lost, the engine always faces the
constraints-plus-random-rows Raptor ensemble; peeling plus the
inactivation finisher over it is maximum-likelihood decoding of the
concatenated code, and completion lands on the first droplet that
brings the matrix to full rank over the ``k'`` intermediates.  The
source packets are then one capped-degree re-encode away.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.codes.lt.decoder import LTDecoder
from repro.codes.lt.encoder import LTEncoder
from repro.codes.peeling import payload_store
from repro.codes.raptor.precode import RaptorGeometry
from repro.errors import DecodeFailure, ParameterError

__all__ = ["RaptorDecoder"]

_NO_IDS = np.empty(0, dtype=np.int64)


class RaptorDecoder(LTDecoder):
    """Incremental systematic-droplet decoder over a :class:`RaptorGeometry`.

    Parameters
    ----------
    geometry:
        The shared geometry (precode CSR, systematic index, droplet
        spec).
    payload_size:
        Droplet payload length in bytes; ``None`` selects structural
        mode (the decoder then only answers *when* decoding completes).
    inactivation_limit:
        Stall threshold for the GF(2) fallback; ``None`` (default)
        allows it at any residual size — maximum-likelihood decoding of
        the concatenated system, the constant-overhead operating point.
    """

    def __init__(self, geometry: RaptorGeometry,
                 payload_size: Optional[int] = None,
                 inactivation_limit: Optional[int] = None):
        self.geometry = geometry
        # The engine's nodes are the k' intermediates, all of which
        # must be solved (geometry.spec.k == intermediate_count).
        super().__init__(geometry.spec, payload_size=payload_size,
                         inactivation_limit=inactivation_limit)
        self._sys_mask = np.zeros(geometry.k, dtype=bool)
        #: systematic ids banked: ``count_nonzero(_sys_mask)``, kept.
        self._sys_banked = 0
        self._sys_payloads: Optional[np.ndarray] = None
        if payload_size is not None:
            self._sys_payloads = payload_store(geometry.k, payload_size)
        # Systematic ids banked while nothing else has arrived, in
        # arrival order; None once the first repair droplet handed
        # them on (from then on the LT intake alone decides).
        self._held: Optional[List] = []
        self._install_constraints()

    def _install_constraints(self) -> None:
        """Pre-install the precode rows as zero-rhs equations.

        They count as equation *arrivals* (rank accounting), not as
        received droplets — reception statistics start at zero.
        """
        indptr, flat = self.geometry.constraint_rows()
        rhs = None
        if self.values is not None:
            rhs = np.zeros((indptr.size - 1, self.values.shape[1]),
                           dtype=np.uint8)
        self.add_equations(indptr, flat, rhs)

    # -- public state ----------------------------------------------------------

    @property
    def _engine_complete(self) -> bool:
        """Joint system solved — every intermediate known."""
        return self._source_known >= self.source_count

    @property
    def is_complete(self) -> bool:
        """Source recoverable — the system is solved, or every
        systematic packet arrived verbatim (the loss-free fast path)."""
        return (self._engine_complete
                or self._sys_banked == self.geometry.k)

    @property
    def source_known_count(self) -> int:
        """How many source packets are recoverable right now."""
        if self.is_complete:
            return self.geometry.k
        return self._sys_banked

    def missing_source_indices(self) -> np.ndarray:
        """Source packet ids not yet recoverable."""
        if self.is_complete:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(~self._sys_mask)[0].astype(np.int64)

    def source_data(self) -> np.ndarray:
        """The reconstructed ``(k, P)`` source block (payload mode).

        Either straight from the systematic cache (all ``k`` source
        packets arrived verbatim), or by re-encoding the solved
        intermediates at the systematic ESIs — one capped-degree XOR
        pass over the *missing* rows only: verbatim packets fill their
        rows straight from the bank, keeping the ids-below-``k`` round
        trip byte-exact by construction rather than by arithmetic, and
        a low-loss receiver re-encodes a handful of rows instead of all
        ``k``.
        """
        if self.values is None:
            raise ParameterError("structural engine holds no payloads")
        assert self._sys_payloads is not None
        if self._sys_banked == self.geometry.k:
            return self._sys_payloads.copy()
        if not self._engine_complete:
            raise DecodeFailure(
                "source not fully recovered",
                missing=self.geometry.k - self.source_known_count)
        out = self._sys_payloads.copy()
        missing = ~self._sys_mask
        out[missing] = LTEncoder(self.spec, self.values).payload_block(
            self.geometry.systematic_esis[missing])
        return out

    # -- the three intake hooks ------------------------------------------------

    def _esis(self, ids: np.ndarray) -> np.ndarray:
        """External droplet ids through the systematic index."""
        return self.geometry.internal_esis(ids)

    def _bank(self, ids: np.ndarray, payloads: Optional[np.ndarray]) -> None:
        """Stash verbatim source packets for the loss-free fast path
        (``ids`` are fresh: the intake admits an id once)."""
        systematic = ids < self.geometry.k
        self._sys_mask[ids[systematic]] = True
        self._sys_banked += int(np.count_nonzero(systematic))
        if self._sys_payloads is not None and payloads is not None:
            self._sys_payloads[ids[systematic]] = payloads[systematic]

    def _deferred(self, ids: np.ndarray, payloads: Optional[np.ndarray]):
        """Hold systematic rows until the block's first repair droplet.

        The constraints plus any set of distinct systematic rows are
        linearly independent (the systematic index was chosen so), so
        while nothing else has arrived the solver could learn nothing
        from them that the bank does not already hold — on any engine,
        and even when they are all ``k`` of them (the clean block
        completes out of the bank).  What comes back at the first
        repair is an ordinary batch: whether it enters now or waits for
        a square system is the LT intake's rule, not this one's.
        """
        if self._held is None:
            return None
        if np.all(ids < self.geometry.k):
            self._held.append(ids)
            self._held_rows += ids.size
            return _NO_IDS, None
        if not self._held_rows:
            self._held = None
            return None
        held = np.hstack(self._held + [ids])
        bank = self._sys_payloads
        if bank is None:
            payloads = None  # structural: no row carries a payload
        elif payloads is not None:
            payloads = np.concatenate([
                bank[held[:self._held_rows]], payloads])
        self._held = None
        self._held_rows = 0
        return held, payloads

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RaptorDecoder(k={self.geometry.k}, "
                f"source_known={self.source_known_count}, "
                f"held_rows={self.held_rows}, "
                f"equations={self.equation_count})")
