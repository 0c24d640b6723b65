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

That full-rank point is all a structural (payload-less) decoder is
asked for, and :class:`RaptorRankDecoder` finds it without the engine:
a rank test over the source packets not seen verbatim, against the
geometry's generator (:func:`~repro.codes.raptor.encoder.build_generator`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.codes.lt.decoder import LTDecoder
from repro.codes.lt.encoder import LTEncoder
from repro.codes.peeling import payload_store
from repro.codes.raptor.precode import RaptorGeometry, grows_rank
from repro.errors import DecodeFailure, ParameterError

__all__ = ["RaptorDecoder", "RaptorRankDecoder"]

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
        mode (the decoder then only answers *when* decoding completes;
        :class:`RaptorRankDecoder` answers that without the engine).

    The GF(2) fallback may run at any residual size:
    maximum-likelihood decoding of the concatenated system, the
    constant-overhead operating point — and the property
    :class:`RaptorRankDecoder` is exact against.
    """

    def __init__(self, geometry: RaptorGeometry,
                 payload_size: Optional[int] = None):
        self.geometry = geometry
        # The engine's nodes are the k' intermediates, all of which
        # must be solved (geometry.spec.k == intermediate_count).
        super().__init__(geometry.spec, payload_size=payload_size)
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

    def _fresh(self) -> "RaptorDecoder":
        return RaptorDecoder(self.geometry, self.payload_size)

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


class RaptorRankDecoder:
    """Structural Raptor decoding as a GF(2) rank over the missing source.

    The precode constraints plus the ``k`` systematic rows are the
    invertible pre-solve system, so in its coordinates a systematic id
    is a unit row over the source packets and a repair droplet is its
    *generator row*: the XOR, over the droplet's neighbours, of the
    ``generator()`` rows writing each intermediate as source packets.
    The received system therefore reaches full rank over the ``k'``
    intermediates — the block decodes, :class:`RaptorDecoder` being
    maximum-likelihood — exactly when the systematic ids seen plus the
    rank of the repair rows restricted to the source packets still
    missing reach ``k``.  No equation is built and nothing peels.
    Repair rows fold only where the engine would attempt a solve — the
    block cannot complete anywhere else — so the generator is first
    fetched there, and a loss-free block never asks for it.

    Every counter of the decoder contract reads as
    ``RaptorDecoder(geometry)``'s after every call, the bound included:
    :attr:`min_additional_packets` is the engine's count bound plus its
    stall gate, which keeps the rank deficit of the last attempt the
    engine would have made (see there).
    """

    def __init__(self, geometry: RaptorGeometry,
                 generator: Callable[[], np.ndarray]):
        self.geometry = geometry
        self.spec = geometry.spec
        self._generator = generator
        self._ids: Set[int] = set()
        self._duplicates = 0
        self._systematic = 0
        #: source packets not seen verbatim, as bits.
        self._missing = (1 << geometry.k) - 1
        #: echelon basis of the repair rows over the missing columns.
        self._basis: Dict[int, int] = {}
        #: repair ids not folded into the basis yet.
        self._pending: List[int] = []
        #: (distinct ids, rank deficit) at the engine's last attempt.
        self._gate: Optional[Tuple[int, int]] = None

    @property
    def is_complete(self) -> bool:
        return self._systematic + len(self._basis) == self.geometry.k

    @property
    def source_known_count(self) -> int:
        return self.geometry.k if self.is_complete else self._systematic

    @property
    def packets_added(self) -> int:
        return len(self._ids)

    @property
    def duplicates_seen(self) -> int:
        return self._duplicates

    @property
    def min_additional_packets(self) -> int:
        """The engine's bound: ``k`` less the distinct arrivals, and the
        deficit of its last failed attempt less one per arrival since.
        The exact deficit would be tighter, but chunk feeders and
        feedback frames read this bound, so it stays the engine's."""
        if self.is_complete:
            return 0
        distinct = len(self._ids)
        bound = max(1, self.geometry.k - distinct)
        if self._gate is not None:
            seen, deficit = self._gate
            bound = max(bound, deficit - (distinct - seen))
        return bound

    def add_packet(self, index: int,
                   payload: Optional[np.ndarray] = None) -> bool:
        """Feed droplet ``index``: :meth:`add_packets` on one row."""
        return bool(self.add_packets((index,)))

    def add_packets(self, indices: Sequence[int],
                    payloads: Optional[np.ndarray] = None) -> int:
        """Feed a batch of droplet ids (payloads, if any, are not
        read); returns how many were new."""
        listed = np.asarray(indices, dtype=np.int64).tolist()
        if listed and min(listed) < 0:
            raise ParameterError("droplet id must be >= 0")
        seen = self._ids
        if len(set(listed)) == len(listed) and seen.isdisjoint(listed):
            seen.update(listed)     # the usual arrival: all new
            fresh = listed
        else:
            fresh = []
            for index in listed:
                if index not in seen:
                    seen.add(index)
                    fresh.append(index)
        self._duplicates += len(listed) - len(fresh)
        if not fresh or self.is_complete:
            return len(fresh)
        k = self.geometry.k
        systematic = [i for i in fresh if i < k]
        if systematic:
            for index in systematic:
                self._missing ^= 1 << index
            self._systematic += len(systematic)
            # project the basis onto the columns still missing
            rows, self._basis = list(self._basis.values()), {}
            for row in rows:
                grows_rank(self._basis, row & self._missing)
        self._pending += [i for i in fresh if i >= k]
        # The engine attempts a solve where a call leaves a square
        # system holding a repair row (every distinct id past the
        # systematic ones is one), and again once as many arrivals came
        # as its last deficit; the block cannot complete anywhere else,
        # so repairs fold here and nowhere else.
        distinct = len(seen)
        if (distinct >= k and distinct > self._systematic
                and not self.is_complete
                and (self._gate is None
                     or distinct - self._gate[0] >= self._gate[1])):
            for row in self._generator_rows(self._pending):
                grows_rank(self._basis, row & self._missing)
            self._pending = []
            self._gate = (distinct,
                          k - self._systematic - len(self._basis))
        return len(fresh)

    def _generator_rows(self, ids: List[int]) -> List[int]:
        """Repair droplets ``ids`` as rows over the source packets."""
        if not ids:
            return []
        flat, indptr = self.spec.neighbour_block(
            self.geometry.internal_esis(np.asarray(ids, dtype=np.int64)))
        rows = np.bitwise_xor.reduceat(self._generator()[flat], indptr[:-1])
        raw, step = rows.tobytes(), rows.shape[1] * 8
        return [int.from_bytes(raw[i:i + step], "little")
                for i in range(0, len(raw), step)]

    def source_data(self) -> np.ndarray:
        raise ParameterError("structural engine holds no payloads")
