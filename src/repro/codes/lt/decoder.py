"""LT peeling decoder — the shared engine in its dynamic configuration.

Where the Tornado decoder installs its whole equation system up front
and feeds observed node values, the LT decoder starts empty: every
received droplet *becomes* one XOR equation over its neighbour set
(regenerated locally from the shared :class:`~repro.codes.lt.encoder.DropletSpec`)
with the droplet payload as right-hand side.  Both run on the same
:class:`~repro.codes.peeling.PeelingEngine` — substitution-rule waves,
plus the optional GF(2) inactivation fallback, which for LT doubles as
maximum-likelihood decoding of the received generator matrix and is what
pushes the reception overhead at small ``k`` well below what pure
peeling achieves.

The decoder mirrors the Tornado :class:`~repro.codes.tornado.decoder.PeelingDecoder`
feeding interface (``add_packet(index, payload)``, ``is_complete``,
``source_data()``) so the fountain client and protocol layers drive both
families through one code path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

import numpy as np

from repro.codes.lt.encoder import DropletSpec
from repro.codes.peeling import PeelingEngine, _VECTOR_INTAKE_MIN
from repro.errors import ParameterError

#: The distinct droplets a block holds: ``DROPLET_CAP_PER_K * k +
#: DROPLET_CAP_FLOOR`` at most (see :class:`LTDecoder`).
DROPLET_CAP_PER_K = 8
DROPLET_CAP_FLOOR = 4096


class LTDecoder(PeelingEngine):
    """Incremental droplet decoder over a :class:`DropletSpec`.

    Parameters
    ----------
    spec:
        The shared droplet agreement (k, degree pmf, seed).
    payload_size:
        Droplet payload length in bytes; ``None`` selects structural
        mode (the decoder then only answers *when* decoding completes).
    inactivation_limit:
        When positive, peeling stalls fall back to bit-packed GF(2)
        elimination over the residual unknowns.  For a rateless code
        this is the difference between Luby's asymptotic overhead and
        near-optimal finite-length behaviour; disable (0) to measure
        pure peeling.

    Bounded state: a batch that would take the block past the cap
    (above) first makes it forget its droplets — their ids and, while
    it is open, all its decoding state — and it starts over from that
    batch.  An honest block completes on about ``1.05 k`` of them; ids
    that never raise the rank (spoofed records over half the block)
    cost at most a cap's worth of memory.  The counters run on; an id
    fed again after a forget counts as new.
    """

    def __init__(self, spec: DropletSpec,
                 payload_size: Optional[int] = None,
                 inactivation_limit: Optional[int] = None):
        self.spec = spec
        if inactivation_limit is None:
            inactivation_limit = spec.k
        super().__init__(spec.k,
                         payload_size=payload_size,
                         inactivation_limit=inactivation_limit)
        # every node is a source node, so the engine's source counter
        # counts every known node (read by min_additional_packets)
        assert self.source_count == self.num_nodes
        # With the finisher able to take on the whole block (limit >= k)
        # the bitmatrix engine decodes lazily: droplets accumulate as
        # packed rows and one factorization plus one payload replay
        # recover everything at the first full-rank packet — the same
        # packet incremental peeling would finish on, without its
        # per-wave payload traffic.
        self._lazy_peel = (self._bitmatrix
                           and self.inactivation_limit >= spec.k)
        self._droplet_ids: Set[int] = set()
        self._droplet_cap = DROPLET_CAP_PER_K * spec.k + DROPLET_CAP_FLOOR
        #: distinct droplets counted before the last forget.
        self._forgotten = 0
        self._duplicates = 0
        self._redundant = 0
        # Droplets admitted and banked whose equations have not entered
        # the engine: on a lazy engine, every row that arrives while
        # the system is still short of square (:meth:`_take`; ids here,
        # payloads already in the rhs rows they will occupy), plus
        # whatever a subclass's :meth:`_deferred` is holding back.  They
        # count as rows and as arrivals in
        # :attr:`min_additional_packets`.
        self._held_ids: List[int] = []
        self._held_rows = 0

    # -- public state ----------------------------------------------------------

    @property
    def packets_added(self) -> int:
        """Distinct droplets fed in so far."""
        return self._forgotten + len(self._droplet_ids)

    @property
    def duplicates_seen(self) -> int:
        """Droplets fed in more than once (same droplet id)."""
        return self._duplicates

    @property
    def redundant_droplets(self) -> int:
        """Distinct droplets that carried no new information on arrival."""
        return self._redundant

    @property
    def held_rows(self) -> int:
        """Droplets banked but not yet in the engine (see :meth:`_take`)."""
        return self._held_rows

    @property
    def min_additional_packets(self) -> int:
        """Provable lower bound on further droplets needed to complete.

        Information-theoretic: completion needs the received generator
        matrix to reach full rank over the engine's nodes, each droplet
        raises that rank by at most one, and peeling never changes it
        (substitution within the row span).  Two bounds compose, both
        exact in droplet counts:

        * unknowns minus active equations (rank <= surviving rows);
        * the rank deficit recorded by the last failed elimination
          attempt, less one per equation *arrival* since — arrivals,
          not stored rows: a droplet consumed on entry (degree one
          after substitution) raises the rank without ever joining
          ``equation_count``, so counting stored rows would overstate
          the bound and let a batch chunk complete mid-chunk.

        Equations a subclass pre-installs (the Raptor precode rows) are
        already inside the system: fresh off construction a Raptor
        decoder's bound is ``k' - r = k``, exactly the source size, and
        its systematic fast path never beats it — each banked packet is
        also one row of the system, entered or still held back
        (:meth:`_take`, :meth:`_deferred`): a held row counts here as
        the row and the arrival it will be on release, so the bound
        reads the same whether or not the engine has seen it yet.

        Batch feeders size ingest chunks with this so completion can
        only land on a chunk's final packet, keeping reception counters
        identical to one-at-a-time feeding.
        """
        if self.is_complete:
            return 0
        unknowns = self.num_nodes - self._source_known
        rows = self._held_rows + int(np.count_nonzero(
            self.unknown_count[:self._num_equations] >= 1))
        bound = max(1, unknowns - rows)
        gate = self._stall_gate
        if gate is not None:
            _, stalled_seen, deficit = gate
            arrivals = self._equations_seen + self._held_rows
            bound = max(bound, deficit - (arrivals - stalled_seen))
        return bound

    # -- subclass hooks --------------------------------------------------------

    def _esis(self, ids: np.ndarray) -> np.ndarray:
        """Hook: the spec's droplet rows behind an array of external
        droplet ids.  A plain LT droplet id *is* its row; a systematic
        code maps ids through its index first.
        """
        return ids

    def _bank(self, ids: np.ndarray, payloads: Optional[np.ndarray]) -> None:
        """Hook: sees every fresh droplet before its equation forms —
        an id array with row-aligned ``payloads``; a systematic code
        keeps the verbatim source packets here.  Nothing to keep for LT.
        """

    def _deferred(self, ids: np.ndarray, payloads: Optional[np.ndarray]):
        """Hook: which equations form now, given these banked droplets.

        ``None`` (LT, always) means exactly these, the usual way.
        Otherwise an ``(ids, payloads)`` batch to enter instead: empty
        while a systematic code holds its verbatim rows back, the held
        rows followed by these once it releases them.
        """
        return None

    # -- feeding droplets ------------------------------------------------------

    def _short_of_square(self, arriving: int) -> bool:
        """True when ``arriving`` more rows still leave fewer rows than
        unknowns — the first bound of :attr:`min_additional_packets` in
        integers (on a lazy engine nothing is known before the solve,
        so every stored row is an active one)."""
        return (self.num_nodes - self._source_known - self._num_equations
                - self._held_rows - arriving) > 0

    def _holds(self, arriving: int) -> bool:
        """True when ``arriving`` rows are to be banked, not entered:
        only on a lazy engine, and only while the system stays short of
        square with them (or they join rows already held — the batch
        that squares it is released together with those)."""
        return self._lazy_peel and (bool(self._held_ids)
                                    or self._short_of_square(arriving))

    def _take(self, ids: np.ndarray, rhs: Optional[np.ndarray]) -> bool:
        """Hold droplets ``ids`` or enter them; True when they entered.

        No code completes on fewer rows than unknowns, and a lazy engine
        (:attr:`_lazy_peel`) does nothing observable with a row before
        its one factorization can succeed — so until the system is
        square a row is only *held*: its id here, its payload written
        once into the rhs row it will occupy
        (:meth:`~repro.codes.peeling.PeelingEngine._pending_rhs`).  The
        arrival that squares the system releases everything held as one
        equation batch, in arrival order; from then on rows enter as
        they come.  Eager engines peel on arrival, which is observable,
        and never hold.
        """
        count = ids.size
        if not count:
            return False
        if self._holds(count):
            held = len(self._held_ids)
            if self._acc is not None:
                self._pending_rhs(held + count)[held:] = rhs
            self._held_ids.extend(ids.tolist())
            self._held_rows += count
            if self._short_of_square(0):
                return False
            ids = np.asarray(self._held_ids, dtype=np.int64)
            rhs = (None if self._acc is None
                   else self._pending_rhs(ids.size))
            self._held_ids = []
            self._held_rows -= ids.size
        self._enter(ids, rhs)
        return True

    def _enter(self, ids: np.ndarray, rhs: Optional[np.ndarray]) -> None:
        """One equation batch for droplets ``ids`` (at least one): their
        neighbour sets in one ``DropletSpec.neighbour_block`` pass — or,
        for a batch too small to repay its set-up, one ``neighbours``
        walk per droplet (the same sets) — then one engine intake."""
        esis = self._esis(ids)
        if esis.size >= _VECTOR_INTAKE_MIN:
            flat, indptr = self.spec.neighbour_block(esis)
        else:
            rows = [self.spec.neighbours(esi) for esi in esis.tolist()]
            flat = np.concatenate(rows)
            indptr = np.cumsum([0] + [row.size for row in rows])
        contributed = self.add_equations(indptr, flat, rhs)
        self._redundant += int(np.count_nonzero(~contributed))

    def add_packet(self, index: int,
                   payload: Optional[np.ndarray] = None) -> bool:
        """Feed droplet ``index``; True when it was a new droplet — a
        batch of one, :meth:`add_packets` on one row."""
        return bool(self._intake((index,), None if payload is None
                                 else np.asarray(payload)[np.newaxis]))

    def add_packets(self, indices: Sequence[int],
                    payloads: Optional[np.ndarray] = None) -> int:
        """Feed a batch of droplets; returns the number of new droplet ids.

        One intake whatever the batch size: the batch is validated
        before any state moves, fresh ids are counted and banked, and a
        droplet that finds the block complete (possibly by its own
        banking) is counted as redundant and builds no equation.  The
        rest form one equation batch — held while the system is short
        of square (:meth:`_take`), then one
        :meth:`~repro.codes.peeling.PeelingEngine.add_equations` call
        with the inactivation fallback considered once after it.
        Recovered bytes do not depend on how a stream is cut into
        batches; only the attribution of *redundant* droplets (a
        statistic) may.
        """
        return self._intake(indices, payloads)

    def _admit_batch(self, indices: Sequence[int], has_payload: bool):
        """Validate, dedup and count a batch of droplet ids: the fresh
        ids, in arrival order, and their positions in ``indices``
        (``None`` = every position).

        An id is any non-negative integer (there is no ``n`` to bound
        it); the whole batch is checked before any id is recorded.  All
        new, all distinct ids — the usual arrival — are admitted with
        one set test, anything else per id, so duplicate counts and
        arrival-order attribution are those of one-at-a-time feeding.
        """
        ids = np.asarray(indices, dtype=np.int64)
        listed = ids.tolist()
        if listed and min(listed) < 0:
            raise ParameterError("droplet id must be >= 0")
        if listed and self.values is not None and not has_payload:
            raise ParameterError("payload decoder requires droplet payloads")
        if len(self._droplet_ids) + len(listed) > self._droplet_cap:
            self._forget()
        seen = self._droplet_ids
        distinct = set(listed)
        if len(distinct) == len(listed) and distinct.isdisjoint(seen):
            seen |= distinct
            return ids, None
        rows = []
        for row, index in enumerate(listed):
            if index not in seen:
                seen.add(index)
                rows.append(row)
        self._duplicates += len(listed) - len(rows)
        return ids[rows], np.asarray(rows, dtype=np.int64)

    def _fresh(self) -> "LTDecoder":
        """Hook: a new decoder of this block, as constructed."""
        return LTDecoder(self.spec, self.payload_size,
                         self.inactivation_limit)

    def _forget(self) -> None:
        """Drop every droplet id this block holds and, unless it is
        complete, all its decoding state; the counters run on."""
        forgotten = self.packets_added
        if not self.is_complete:
            counters = self._duplicates, self._redundant
            self.__dict__.update(self._fresh().__dict__)
            self._duplicates, self._redundant = counters
        self._droplet_ids = set()
        self._forgotten = forgotten

    def _intake(self, indices: Sequence[int],
                payloads: Optional[np.ndarray]) -> int:
        """The body of :meth:`add_packet` and :meth:`add_packets`."""
        self._check_width(payloads)
        ids, rows = self._admit_batch(indices, payloads is not None)
        fresh = int(ids.size)
        if not fresh:
            return 0
        rhs = None
        if payloads is not None:
            rhs = np.asarray(payloads, dtype=np.uint8)
            if rows is not None:
                rhs = rhs[rows]
        self._bank(ids, rhs)
        if self.is_complete:
            # Late droplets are still new (and counted), but carry no
            # information worth building equations from.
            self._redundant += fresh
            return fresh
        batch = self._deferred(ids, rhs)
        if batch is not None:
            ids, rhs = batch
        if self._take(ids, rhs):
            self.maybe_inactivate()
        return fresh

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(k={self.spec.k}, "
                f"packets_added={self.packets_added}, "
                f"held_rows={self.held_rows}, "
                f"equations={self.equation_count})")
