"""Shared XOR-peeling engine for sparse-graph erasure codes.

Tornado cascades (:mod:`repro.codes.tornado`) and LT rateless codes
(:mod:`repro.codes.lt`) decode the same way: a system of XOR *equations*
over unknown packets is peeled by the substitution rule — whenever an
equation has exactly one unknown participant, that participant equals
the XOR of everything else in the equation.  This module holds the one
engine both families run on; the per-family decoders only differ in how
equations enter the system:

* **Tornado** knows its whole equation system up front (every right node
  of every cascade graph is one equation) and feeds *observed node
  values* as packets arrive — :meth:`PeelingEngine.load_static_equations`
  plus :meth:`PeelingEngine.observe_nodes`.
* **LT** starts with no equations at all; every received droplet *is* an
  equation (its payload XORed over its neighbour set) —
  :meth:`PeelingEngine.add_equation`.

Bookkeeping is the standard O(edges) scheme:

* ``unknown_count[e]`` — unknown participants remaining in equation e;
* ``xor_ids[e]``       — XOR of the *indices* of unknown participants, so
  when the count hits one the missing index is read off directly;
* ``acc[e]``           — XOR of the known participants' *payloads* (only
  in payload mode), so the recovered value is read off directly.

Propagation is wave-vectorised: all nodes that became known in a wave
update their equations in one segmented reduction per wave (incidences
sorted by equation, one ``np.bitwise_xor.reduceat``), and the next wave
is the set of newly solvable nodes.  Static equations use a prebuilt CSR
incidence; dynamically added equations keep per-node adjacency lists
(or a packed bitmatrix), and a wave walks both.

The engine can run in two modes:

* **payload mode** — actual packet contents are XORed; ``values`` holds
  the reconstructed block.
* **structural mode** (``payload_size=None``) — only indices are tracked;
  used by the large-scale simulations, where the question is *when*
  decoding completes, not what the bytes are.

When peeling stalls, *inactivation decoding* (the standard modern
extension, cf. RaptorQ / RFC 6330) optionally solves the stalled
equations directly over GF(2): one structural peel-and-inactivate
factorization (:func:`factor_gf2`) followed by a payload pass; see
:meth:`PeelingEngine.maybe_inactivate`.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import DecodeFailure, ParameterError
from repro.utils.packed import apply_xor_schedule, xor_view


def payload_store(rows: int, width: int) -> np.ndarray:
    """A zeroed ``(rows, width)`` uint8 payload store.

    Decoders keep their node values and equation right-hand sides here.
    Each store is a private anonymous mapping of its own, which goes
    back to the system the moment the decoder holding it is dropped.  A
    heap block would stay resident for reuse (a code build's large
    temporaries raise glibc's mmap threshold up to 32 MiB, pulling
    decoder stores into the heap), so a receiver that opens every
    block's decoder at once and drops each as its block completes would
    keep the sum of them all.
    """
    if rows * width == 0:
        return np.zeros((rows, width), dtype=np.uint8)
    return np.frombuffer(mmap.mmap(-1, rows * width, flags=mmap.MAP_PRIVATE),
                         dtype=np.uint8).reshape(rows, width)


def _group_sorted(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Segment starts and unique keys of an already-sorted key array."""
    starts = np.concatenate(
        ([0], np.nonzero(np.diff(keys))[0] + 1)).astype(np.int64)
    return starts, keys[starts]


#: node-count ceiling for the packed-bitmatrix dynamic store.  One
#: equation row costs ``num_nodes / 8`` bytes, so the dense rows stay
#: cache-friendly for transfer-block-sized systems and the engine falls
#: back to adjacency dicts beyond it.
_BITMATRIX_MAX_NODES = 1 << 14

#: smallest batch worth the vectorized intake's fixed dispatch cost in
#: :meth:`PeelingEngine.add_equations` and the batch neighbour
#: derivation of ``LTDecoder._enter`` — the two places a batch is routed
#: by size.  Sub-threshold batches (one or two droplets at the tail of a
#: transfer) run per row instead, which reaches the same fixpoint — at
#: batch size 1 the batch set-up otherwise costs more than the walk
#: (BENCH_transfer.json's ``ingest-lt-k128-b1`` floor).
_VECTOR_INTAKE_MIN = 8

if hasattr(np, "bitwise_count"):
    def _row_popcounts(block: np.ndarray) -> np.ndarray:
        """Per-row set-bit counts of a packed ``(rows, words)`` block."""
        return np.bitwise_count(block).sum(axis=1, dtype=np.int64)
else:  # pragma: no cover - numpy < 2.0 fallback
    _POP8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

    def _row_popcounts(block: np.ndarray) -> np.ndarray:
        return _POP8[np.ascontiguousarray(block).view(np.uint8)].sum(
            axis=1, dtype=np.int64)


def _scatter_bits(dest: np.ndarray, cols: np.ndarray) -> None:
    """Set bit ``c`` (word ``c >> 6``, bit ``c & 63``) for every col."""
    np.bitwise_or.at(dest, cols >> 6,
                     np.uint64(1) << (cols & 63).astype(np.uint64))


def _fold_dense(basis: Dict[int, Tuple[int, int]], r: int, c: int) -> None:
    """Echelon-fold one dense row (coefficients ``r``, row-combo ``c``)."""
    while r:
        top = r.bit_length() - 1
        entry = basis.get(top)
        if entry is None:
            basis[top] = (r, c)
            return
        r ^= entry[0]
        c ^= entry[1]


@dataclass
class GF2Factorization:
    """What :func:`factor_gf2` learned about one sparse GF(2) system.

    Purely structural — no payload has moved yet.  Two consumers read
    it: the engine finisher replays it over big-int payloads
    (:meth:`PeelingEngine._replay_payloads`) and
    :func:`record_solve_plan` levels it into XOR waves.

    Attributes
    ----------
    pivots:
        ``(column, row)`` in peel order, which is a topological order
        of the substitution DAG: every other participant of a pivot row
        is an inactive column or an earlier pivot's column.
    inactive:
        Inactivated columns; position ``t`` here is bit ``t`` of every
        inactive mask below.
    col_expr:
        Each determined column as ``(inactive mask, rhs-row mask)`` —
        the column's value is the XOR of the named inactive columns and
        the named rows' right-hand sides.
    basis:
        Echelon basis of the dense core (the non-pivot rows, reduced to
        equations over the inactive columns), keyed by top inactive
        position: ``(reduced coefficients, rhs-row mask)``.
    row_indptr, row_cols:
        The factored rows' column lists (flat, python lists) for the
        payload pass.
    num_rows:
        Rows folded so far — the factored ones plus every
        :meth:`fold_row` since.
    """

    pivots: List[Tuple[int, int]]
    inactive: List[int]
    col_expr: Dict[int, Tuple[int, int]]
    basis: Dict[int, Tuple[int, int]]
    row_indptr: List[int]
    row_cols: List[int]
    num_rows: int

    @property
    def deficit(self) -> int:
        """Rank deficit: pivot rows are triangular over the peeled
        columns, so the system's rank is ``peeled + rank(dense core)``
        and what is missing is exactly what the core is short of."""
        return len(self.inactive) - len(self.basis)

    def fold_row(self, cols: List[int]) -> None:
        """Append one equation over already-determined columns.

        Every column it names is a pivot or inactive, so the row
        reduces straight to a dense equation over the inactive columns
        and folds into the core — no re-factorization.
        """
        ri, rc = 0, 1 << self.num_rows
        for c in cols:
            expr_i, expr_c = self.col_expr[c]
            ri ^= expr_i
            rc ^= expr_c
        _fold_dense(self.basis, ri, rc)
        self.num_rows += 1

    def inactive_combos(self) -> List[int]:
        """Back-substitute the full-rank dense core: one rhs-row mask
        per inactive column, naming the right-hand sides whose XOR is
        that column's value."""
        combos = [0] * len(self.inactive)
        for top in sorted(self.basis):
            r, c = self.basis[top]
            r ^= 1 << top
            while r:
                low = r & -r
                c ^= combos[low.bit_length() - 1]
                r ^= low
            combos[top] = c
        return combos


def factor_gf2(rows: np.ndarray, cols: np.ndarray, num_rows: int,
               columns: np.ndarray, num_cols: int) -> GF2Factorization:
    """Peel-and-inactivate factorization of a sparse GF(2) system.

    The system arrives as ``(row, column)`` incidence pairs grouped by
    ascending row — the one form every caller already holds (a CSR, a
    gathered adjacency, the set bits of a packed matrix).  ``columns``
    lists the unknowns to determine, all below ``num_cols``.

    The classic structure (cf. RaptorQ / RFC 6330): peel the matrix
    *structurally* — no payload traffic — inactivating a highest-degree
    column whenever the ripple dries up, until every column is either a
    peeling pivot or inactive; then echelon-fold the rows that never
    became pivots, which by then are dense equations over the inactive
    columns only.  A column leaves the active system exactly once, so
    every column->rows list is walked at most once and the whole pass
    is O(edges).  Peel waves are one to three rows wide in practice, so
    a tight python loop beats per-wave numpy dispatch here.
    """
    cnt_arr = np.bincount(rows, minlength=num_rows)
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(cnt_arr, out=indptr[1:])
    # XOR of each row's active column ids: once a single column is left
    # it is read off directly (the engine's ``xor_ids`` trick).
    left_arr = np.zeros(num_rows, dtype=np.int64)
    filled = np.nonzero(cnt_arr)[0]
    if filled.size:
        left_arr[filled] = np.bitwise_xor.reduceat(cols, indptr[filled])
    cnt, left = cnt_arr.tolist(), left_arr.tolist()
    # Column -> rows adjacency, flat: the rows of column c (ascending)
    # are ``rows_by_col[col_ptr[c]:col_ptr[c + 1]]``.  Pairs are unique,
    # so sorting one combined key orders them by column, then row.
    degs = np.bincount(cols, minlength=num_cols)
    col_ptr = np.concatenate(([0], np.cumsum(degs))).tolist()
    rows_by_col = (np.sort(cols * num_rows + rows) % num_rows).tolist()
    # Inactivation order, fixed up front: busiest column first (ties to
    # the lowest id) over initial degrees — the standard greedy
    # heuristic, precomputed so the dry-ripple branch only advances a
    # pointer.  Zero-degree unknowns sort last; they can never peel, so
    # they always end up inactivated (and undetermined by the dense
    # core unless later rows name them).
    inact_order = columns[np.lexsort((columns, -degs[columns]))].tolist()
    inact_ptr = 0
    determined = bytearray(num_cols)
    # Substituting a determined column out of row q rewrites q as an
    # equation over its still-active columns, the inactive columns in
    # ``row_inact[q]`` and the XOR of the right-hand sides named by
    # ``row_combo[q]`` (bit = row).
    row_inact = [0] * num_rows
    row_combo = [1 << p for p in range(num_rows)]
    is_pivot = [False] * num_rows
    col_expr: Dict[int, Tuple[int, int]] = {}
    inactive: List[int] = []
    pivots: List[Tuple[int, int]] = []
    remaining = int(columns.size)
    frontier = [p for p in range(num_rows) if cnt[p] == 1]
    while remaining:
        if not frontier:
            # Ripple dry: inactivate the next undetermined column.
            c = inact_order[inact_ptr]
            while determined[c]:
                inact_ptr += 1
                c = inact_order[inact_ptr]
            determined[c] = 1
            remaining -= 1
            expr_i = 1 << len(inactive)
            inactive.append(c)
            col_expr[c] = (expr_i, 0)
            for q in rows_by_col[col_ptr[c]:col_ptr[c + 1]]:
                left[q] ^= c
                cnt[q] -= 1
                row_inact[q] ^= expr_i
                if cnt[q] == 1:
                    frontier.append(q)
            continue
        next_frontier: List[int] = []
        for p in frontier:
            if cnt[p] != 1 or is_pivot[p]:
                continue
            c = left[p]
            is_pivot[p] = True
            determined[c] = 1
            remaining -= 1
            pivots.append((c, p))
            expr_i, expr_c = row_inact[p], row_combo[p]
            col_expr[c] = (expr_i, expr_c)
            for q in rows_by_col[col_ptr[c]:col_ptr[c + 1]]:
                left[q] ^= c
                cnt[q] -= 1
                if q != p:
                    row_inact[q] ^= expr_i
                    row_combo[q] ^= expr_c
                    if cnt[q] == 1:
                        next_frontier.append(q)
        frontier = next_frontier
    basis: Dict[int, Tuple[int, int]] = {}
    for p in range(num_rows):
        if not is_pivot[p]:
            _fold_dense(basis, row_inact[p], row_combo[p])
    return GF2Factorization(pivots, inactive, col_expr, basis,
                            indptr.tolist(), cols.tolist(), num_rows)


class PeelingEngine:
    """Incremental XOR-equation solver over ``num_nodes`` packet slots.

    Parameters
    ----------
    num_nodes:
        Total packet slots (unknowns plus directly observable packets).
    payload_size:
        Packet payload length in bytes; ``None`` selects structural mode.
    source_count:
        How many leading nodes constitute the source block; decoding is
        complete once all of them are known.  Defaults to ``num_nodes``.
    inactivation_limit:
        When positive, enables the GF(2) elimination fallback whenever
        peeling stalls with at most this many unknowns remaining.  Zero
        disables it (pure peeling).
    """

    def __init__(self, num_nodes: int,
                 payload_size: Optional[int] = None,
                 source_count: Optional[int] = None,
                 inactivation_limit: int = 0):
        if num_nodes <= 0:
            raise ParameterError("num_nodes must be positive")
        self.num_nodes = int(num_nodes)
        self.source_count = (self.num_nodes if source_count is None
                             else int(source_count))
        if not 0 < self.source_count <= self.num_nodes:
            raise ParameterError(
                f"source_count {source_count} outside (0, {num_nodes}]")
        self.payload_size = payload_size
        self.inactivation_limit = int(inactivation_limit)
        self.known = np.zeros(self.num_nodes, dtype=bool)
        self._source_known = 0
        self._num_equations = 0
        # Every equation arrival, including ones consumed on entry
        # (degree-1 solves) or dropped as redundant — ``_num_equations``
        # counts only *stored* rows, which undercounts rank growth:
        # a consumed arrival raises the system rank without ever being
        # stored, so deficit bounds must tick against arrivals.
        self._equations_seen = 0
        self.unknown_count = np.zeros(0, dtype=np.int64)
        self.xor_ids = np.zeros(0, dtype=np.int64)
        self._inactivation_runs = 0
        self._fold_runs = 0
        # After a failed solve: (unknowns, equations_seen, rank deficit).
        self._stall_gate: Optional[Tuple[int, int, int]] = None
        # Factorization of the stalled system, kept across failed
        # attempts: valid until the known set changes (:meth:`_mark_known`
        # drops it), so a retry only folds the equations that arrived since.
        self._factored: Optional[GF2Factorization] = None
        # Static incidence (node -> equations), built once by
        # load_static_equations; None until then.
        self._node_indptr: Optional[np.ndarray] = None
        self._node_eqs: Optional[np.ndarray] = None
        self._raw_nodes: Optional[np.ndarray] = None
        self._raw_eqs: Optional[np.ndarray] = None
        self._static_eq_count = 0
        self._eq_indptr: Optional[np.ndarray] = None
        self._eq_nodes: Optional[np.ndarray] = None
        # Dynamic incidence for equations added after construction: a
        # packed uint64 bitmatrix (one row per equation, bit = participant
        # unknown at entry) so waves run as whole-matrix bit ops; engines
        # above _BITMATRIX_MAX_NODES nodes or with static equations keep
        # per-node adjacency dicts.
        self._bitmatrix = self.num_nodes <= _BITMATRIX_MAX_NODES
        # Lazy-peel discipline (opt-in, bitmatrix engines only): skip
        # incremental payload peeling entirely and let the gated
        # finisher decode the accumulated system in one factorization
        # plus one payload replay.  Completion lands on the same packet
        # either way — both disciplines finish exactly when the received
        # system first reaches full rank.
        self._lazy_peel = False
        self._words = (self.num_nodes + 63) >> 6
        self._dyn_rows = np.zeros((0, self._words), dtype=np.uint64)
        self._known_bits = np.zeros(self._words, dtype=np.uint64)
        self._dyn_node_eqs: Dict[int, List[int]] = {}
        self._dyn_eq_nodes: Dict[int, np.ndarray] = {}
        if payload_size is not None:
            if payload_size <= 0:
                raise ParameterError("payload_size must be positive")
            self.values: Optional[np.ndarray] = payload_store(
                self.num_nodes, payload_size)
            self._acc: Optional[np.ndarray] = payload_store(0, payload_size)
        else:
            self.values = None
            self._acc = None

    # -- equation entry points -------------------------------------------------

    def load_static_equations(self, num_equations: int,
                              nodes: np.ndarray, eqs: np.ndarray) -> None:
        """Install the full equation system of a fixed-rate code.

        ``nodes[i]`` participates in equation ``eqs[i]``; equation ids run
        in ``[0, num_equations)``.  Must be called before any packet is
        fed and at most once.
        """
        if self._num_equations or self._packets_seen():
            raise ParameterError(
                "static equations must be installed on a fresh engine")
        nodes = np.asarray(nodes, dtype=np.int64)
        eqs = np.asarray(eqs, dtype=np.int64)
        # Mixed static/dynamic systems keep the adjacency-dict scheme;
        # the bitmatrix store is the pure-dynamic (rateless) fast path.
        self._bitmatrix = False
        self._num_equations = int(num_equations)
        self._static_eq_count = self._num_equations
        # CSR: node -> equations it participates in.
        order = np.argsort(nodes, kind="stable")
        self._node_eqs = eqs[order]
        counts = np.bincount(nodes, minlength=self.num_nodes)
        self._node_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self._node_indptr[1:])
        # Raw incidence arrays, kept for the (lazy) eq -> nodes CSR that
        # inactivation decoding needs.
        self._raw_nodes = nodes
        self._raw_eqs = eqs
        # Stores sized with room for the dynamic rows a stalled tail
        # appends (packets entering as degree-one equations while a
        # factorization is kept): untouched zero rows cost nothing,
        # a doubling mid-transfer copies the whole rhs store.
        capacity = self._num_equations + (self._num_equations >> 3) + 16
        self.unknown_count = np.bincount(
            eqs, minlength=capacity).astype(np.int64)
        self.xor_ids = np.zeros(capacity, dtype=np.int64)
        np.bitwise_xor.at(self.xor_ids, eqs, nodes)
        if self._acc is not None:
            self._acc = payload_store(capacity, self.payload_size)

    def add_equation(self, participants: np.ndarray,
                     rhs: Optional[np.ndarray] = None) -> bool:
        """Feed one dynamic equation: XOR of ``participants`` equals ``rhs``.

        The equation is reduced against already-known nodes on entry; a
        fully reduced (redundant) equation is dropped.  Returns True when
        the equation carried new information (it either solved a node or
        joined the active system), False when it was redundant.

        Callers feeding several equations should call
        :meth:`maybe_inactivate` once afterwards.
        """
        participants = np.asarray(participants, dtype=np.int64)
        if participants.size == 0:
            return False
        if np.any((participants < 0) | (participants >= self.num_nodes)):
            raise ParameterError("equation participant outside node range")
        self._equations_seen += 1
        known_mask = self.known[participants]
        unknown = participants[~known_mask]
        if self.values is not None:
            if rhs is None:
                raise ParameterError("payload engine requires equation rhs")
            acc = np.asarray(rhs, dtype=np.uint8).copy()
            solved = participants[known_mask]
            if solved.size:
                acc ^= np.bitwise_xor.reduce(self.values[solved], axis=0)
        else:
            acc = None
        if unknown.size == 0:
            return False
        if unknown.size == 1 and not self._defers_peeling():
            node = int(unknown[0])
            if self.values is not None:
                self.values[node] = acc
            frontier = np.asarray([node], dtype=np.int64)
            self._mark_known(frontier)
            self._propagate(frontier)
            return True
        eq = self._append_equation(unknown, acc)
        if self._bitmatrix:
            _scatter_bits(self._dyn_rows[eq], unknown)
        else:
            for node in unknown.tolist():
                self._dyn_node_eqs.setdefault(int(node), []).append(eq)
            self._dyn_eq_nodes[eq] = unknown
        return True

    def add_equations(self, indptr: np.ndarray, participants: np.ndarray,
                      rhs_block: Optional[np.ndarray] = None) -> np.ndarray:
        """Feed a batch of dynamic equations in one vectorized pass.

        Equation ``i`` is the XOR of ``participants[indptr[i]:indptr[i+1]]``
        with right-hand side ``rhs_block[i]``.  Reaches the same decoder
        fixpoint as feeding each equation through :meth:`add_equation`
        (peeling is order-independent); the returned per-equation
        ``contributed`` flags may attribute redundancy to different
        equations than the sequential order would, which only affects
        statistics, never recovered bytes.

        Callers should invoke :meth:`maybe_inactivate` once afterwards.
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        participants = np.asarray(participants, dtype=np.int64)
        m = indptr.size - 1
        contributed = np.zeros(m, dtype=bool)
        if m <= 0:
            return contributed
        if m < _VECTOR_INTAKE_MIN:
            # The per-row route: tiny batches pay per-equation costs
            # either way, so skip the batch set-up machinery.
            for i in range(m):
                seg = participants[indptr[i]:indptr[i + 1]]
                rhs = None if rhs_block is None else rhs_block[i]
                contributed[i] = self.add_equation(seg, rhs)
            return contributed
        if participants.size and np.any(
                (participants < 0) | (participants >= self.num_nodes)):
            raise ParameterError("equation participant outside node range")
        self._equations_seen += m
        sizes = np.diff(indptr)
        eq_of = np.repeat(np.arange(m), sizes)
        known_edge = self.known[participants]
        unknown_edge = ~known_edge
        deg = np.bincount(eq_of[unknown_edge], minlength=m)
        # Degree >= 2 equations join the active system *before* the
        # propagation wave, so the wave reduces them like any other.
        # While the engine is stalled on a kept factorization, degree
        # one equations join the system too (see _defers_peeling) instead
        # of solving their node — the elimination retry folds them.
        min_deg = 1 if self._defers_peeling() else 2
        keep = np.nonzero(deg >= min_deg)[0]
        adopted = False
        if self.values is not None:
            if rhs_block is None:
                raise ParameterError("payload engine requires equation rhs")
            acc = np.asarray(rhs_block, dtype=np.uint8)
            # A block handed out by _pending_rhs already sits in the
            # rows these equations will occupy (it starts at the first
            # free row's address); when every one of them is stored it
            # is adopted as is, anything else is copied.
            adopted = (keep.size == m
                       and acc.__array_interface__["data"]
                       == self._acc[self._num_equations:]
                       .__array_interface__["data"])
            if not adopted:
                acc = acc.copy()
            if known_edge.any():
                # Fold the known participants' payloads into each rhs row.
                k_eqs = eq_of[known_edge]
                pay = self.values[participants[known_edge]]
                starts, ueq = _group_sorted(k_eqs)
                folded = np.bitwise_xor.reduceat(
                    xor_view(pay), starts, axis=0)
                xor_view(acc)[ueq] ^= folded
        else:
            acc = None
        if keep.size:
            while self._num_equations + keep.size > self.unknown_count.shape[0]:
                self._grow_equations()
            eq_ids = self._num_equations + np.arange(keep.size)
            keep_edge = unknown_edge & (deg[eq_of] >= min_deg)
            nodes_k = participants[keep_edge]
            starts, _ = _group_sorted(eq_of[keep_edge])
            self.unknown_count[eq_ids] = deg[keep]
            self.xor_ids[eq_ids] = np.bitwise_xor.reduceat(nodes_k, starts)
            if self._acc is not None and not adopted:
                self._acc[eq_ids] = acc[keep]
            self._num_equations += keep.size
            if self._bitmatrix:
                # One scatter sets every (equation, participant) bit.
                row_of = np.zeros(m, dtype=np.int64)
                row_of[keep] = eq_ids
                rows_e = row_of[eq_of[keep_edge]]
                np.bitwise_or.at(
                    self._dyn_rows, (rows_e, nodes_k >> 6),
                    np.uint64(1) << (nodes_k & 63).astype(np.uint64))
            else:
                bounds = np.append(starts, nodes_k.size)
                for j, eq in enumerate(eq_ids.tolist()):
                    seg = nodes_k[bounds[j]:bounds[j + 1]]
                    self._dyn_eq_nodes[eq] = seg
                    for node in seg.tolist():
                        self._dyn_node_eqs.setdefault(node, []).append(eq)
            contributed[keep] = True
        ones = np.nonzero(deg == 1)[0] if min_deg == 2 else \
            np.zeros(0, dtype=np.int64)
        if ones.size:
            nodes1 = participants[unknown_edge & (deg[eq_of] == 1)]
            uniq, first = np.unique(nodes1, return_index=True)
            contributed[ones[first]] = True
            if self.values is not None:
                self.values[uniq] = acc[ones[first]]
            self._mark_known(uniq)
            self._propagate(uniq)
        return contributed

    def _append_equation(self, unknown: np.ndarray,
                         acc: Optional[np.ndarray]) -> int:
        eq = self._num_equations
        if eq >= self.unknown_count.shape[0]:
            self._grow_equations()
        self.unknown_count[eq] = unknown.size
        self.xor_ids[eq] = int(np.bitwise_xor.reduce(unknown))
        if self._acc is not None:
            self._acc[eq] = acc
        self._num_equations += 1
        return eq

    def _grow_equations(self, capacity: int = 0) -> None:
        """Double the equation stores, to at least ``capacity`` rows.

        Whole stores are carried over, not just the stored equations:
        rows past ``_num_equations`` are zero unless a decoder banked
        right-hand sides there ahead of entry (:meth:`_pending_rhs`).
        """
        old_cap = self.unknown_count.shape[0]
        new_cap = max(16, 2 * old_cap, capacity)
        grown = np.zeros(new_cap, dtype=np.int64)
        grown[:old_cap] = self.unknown_count
        self.unknown_count = grown
        grown = np.zeros(new_cap, dtype=np.int64)
        grown[:old_cap] = self.xor_ids
        self.xor_ids = grown
        if self._acc is not None:
            grown = payload_store(new_cap, self.payload_size)
            grown[:old_cap] = self._acc
            self._acc = grown
        if self._bitmatrix:
            grown = np.zeros((new_cap, self._words), dtype=np.uint64)
            grown[:old_cap] = self._dyn_rows
            self._dyn_rows = grown

    def _pending_rhs(self, count: int) -> np.ndarray:
        """The rhs rows the next ``count`` stored equations will occupy.

        A decoder that holds droplets back until the system can have
        full rank writes each payload here once, on arrival, and hands
        the same view to :meth:`add_equations`, which adopts it in
        place — no second copy of a held payload.  The first call sizes
        the stores for a square system plus the usual reception
        overhead in one step, so banking ``k`` rows never pays for the
        doublings on the way there.
        """
        end = self._num_equations + count
        if end > self._acc.shape[0]:
            self._grow_equations(
                max(end, self.num_nodes + (self.num_nodes >> 3) + 16))
        return self._acc[self._num_equations:end]

    def observe_nodes(self, nodes: np.ndarray,
                      payloads: Optional[np.ndarray] = None) -> None:
        """Feed directly observed node values (fixed-rate code packets).

        ``nodes`` must be fresh (not yet known) and duplicate-free; the
        caller owns duplicate filtering and accounting.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return
        if self.values is not None:
            if payloads is None:
                raise ParameterError("payload engine requires packet payloads")
            self.values[nodes] = payloads
        self._mark_known(nodes)
        self._propagate(nodes)

    # -- public state ----------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        """True once every source node is known."""
        return self._source_known >= self.source_count

    @property
    def source_known_count(self) -> int:
        return self._source_known

    @property
    def equation_count(self) -> int:
        """Equations currently in the system (static + dynamic)."""
        return self._num_equations

    def source_data(self) -> np.ndarray:
        """The reconstructed ``(source_count, P)`` block (payload mode)."""
        if self.values is None:
            raise ParameterError("structural engine holds no payloads")
        if not self.is_complete:
            raise DecodeFailure(
                "source not fully recovered",
                missing=self.source_count - self._source_known)
        return self.values[:self.source_count].copy()

    def missing_source_indices(self) -> np.ndarray:
        """Source node indices not yet recovered."""
        return np.nonzero(~self.known[:self.source_count])[0]

    def _packets_seen(self) -> bool:
        return bool(self._source_known) or bool(np.any(self.known))

    def _check_width(self, payloads: Optional[np.ndarray]) -> None:
        """Reject a payload (or payload block) of the wrong width.

        The decoders' intakes call this once per call, before any state
        moves: numpy would broadcast a one-symbol payload across a whole
        row and raise a bare ``ValueError`` on any other width, by then
        with the packet already counted.
        """
        if payloads is None or self.values is None:
            return
        width = np.shape(payloads)[-1:]
        if width != (self.payload_size,):
            raise ParameterError(
                f"payload carries {width[0] if width else 0} symbols, "
                f"decoder expects {self.payload_size}")

    # -- core propagation ------------------------------------------------------

    def _mark_known(self, nodes: np.ndarray) -> None:
        self.known[nodes] = True
        if self._bitmatrix:
            _scatter_bits(self._known_bits, nodes)
        self._source_known += int(np.count_nonzero(nodes < self.source_count))
        # Any change to the known set reshapes the stalled system's
        # columns; a factorization is built per shape.
        self._factored = None

    def _gather_incidences(self, nodes: np.ndarray):
        """All (equation, node) incidences of ``nodes`` as flat arrays."""
        eq_parts: List[np.ndarray] = []
        node_parts: List[np.ndarray] = []
        if self._node_indptr is not None:
            starts = self._node_indptr[nodes]
            ends = self._node_indptr[nodes + 1]
            counts = ends - starts
            total = int(counts.sum())
            if total:
                # Flattened multi-slice gather.
                cum = np.cumsum(counts) - counts
                flat = np.repeat(starts - cum, counts) + np.arange(total)
                eq_parts.append(self._node_eqs[flat])
                node_parts.append(np.repeat(nodes, counts))
        if self._dyn_node_eqs:
            for node in nodes.tolist():
                lst = self._dyn_node_eqs.get(int(node))
                if lst:
                    eq_parts.append(np.asarray(lst, dtype=np.int64))
                    node_parts.append(
                        np.full(len(lst), node, dtype=np.int64))
        if not eq_parts:
            return None, None
        if len(eq_parts) == 1:
            return eq_parts[0], node_parts[0]
        return np.concatenate(eq_parts), np.concatenate(node_parts)

    def _wave_bitmatrix(self, frontier: np.ndarray) -> Optional[np.ndarray]:
        """One peeling wave over the packed dynamic rows.

        Intersecting every equation row with the frontier bitmask finds
        all (equation, solved-node) incidences of the wave in one pass:
        popcounts decrement ``unknown_count`` wholesale, and the set bits
        of the touched intersections expand (row-major, so already
        grouped by equation) into segmented XOR reductions over node ids
        and payloads.  Bits are never cleared — a node becomes known
        exactly once, so each incidence intersects exactly one wave.
        Returns the touched equation ids, or None when the wave missed.
        """
        m = self._num_equations
        if m == 0:
            return None
        rows = self._dyn_rows[:m]
        mask = np.zeros(self._words, dtype=np.uint64)
        _scatter_bits(mask, frontier)
        inter = rows & mask
        hits = _row_popcounts(inter)
        touched = np.nonzero(hits)[0]
        if touched.size == 0:
            return None
        self.unknown_count[touched] -= hits[touched]
        bits = np.unpackbits(inter[touched].view(np.uint8),
                             bitorder="little")
        r_idx, cols = np.nonzero(bits.reshape(touched.size, -1))
        starts = np.concatenate(([0], np.nonzero(np.diff(r_idx))[0] + 1))
        self.xor_ids[touched] ^= np.bitwise_xor.reduceat(cols, starts)
        if self._acc is not None:
            folded = np.bitwise_xor.reduceat(
                xor_view(self.values[cols]), starts, axis=0)
            xor_view(self._acc)[touched] ^= folded
        return touched

    def _wave_incidences(self, frontier: np.ndarray) -> Optional[np.ndarray]:
        """One peeling wave over the static CSR and the adjacency dicts.

        The wave's incidences are sorted by equation and each equation's
        whole update is one segmented reduction, the payload XOR once
        per *equation* rather than per edge, through a uint64 view when
        the width packs.  Returns the touched equation ids, or None when
        the wave missed.
        """
        eqs, nodes_rep = self._gather_incidences(frontier)
        if eqs is None:
            return None
        order = np.argsort(eqs)
        eqs_s = eqs[order]
        nodes_s = nodes_rep[order]
        starts, touched = _group_sorted(eqs_s)
        self.unknown_count[touched] -= np.diff(np.append(starts, eqs_s.size))
        self.xor_ids[touched] ^= np.bitwise_xor.reduceat(nodes_s, starts)
        if self._acc is not None:
            folded = np.bitwise_xor.reduceat(
                xor_view(self.values[nodes_s]), starts, axis=0)
            xor_view(self._acc)[touched] ^= folded
        return touched

    def _propagate(self, frontier: np.ndarray) -> None:
        """Run peeling waves until quiescent, invoking the subclass hook."""
        while True:
            while frontier.size:
                touched = (self._wave_bitmatrix(frontier) if self._bitmatrix
                           else self._wave_incidences(frontier))
                if touched is None:
                    break
                ready = touched[self.unknown_count[touched] == 1]
                frontier = self._advance_wave(ready)
            extra = self._on_quiescent()
            if extra is None or extra.size == 0:
                return
            frontier = extra

    def _advance_wave(self, ready: np.ndarray) -> np.ndarray:
        """Solve a wave's degree-one equations; returns the next frontier."""
        candidates = self.xor_ids[ready]
        new_mask = ~self.known[candidates]
        candidates = candidates[new_mask]
        ready = ready[new_mask]
        if candidates.size == 0:
            return np.zeros(0, dtype=np.int64)
        uniq, first = np.unique(candidates, return_index=True)
        if self.values is not None:
            self.values[uniq] = self._acc[ready[first]]
        self._mark_known(uniq)
        return uniq

    def _on_quiescent(self) -> Optional[np.ndarray]:
        """Hook: called when a wave dies out; return a fresh frontier.

        Subclasses with an auxiliary (non-XOR) recovery mechanism — e.g.
        the Tornado cap's Reed-Solomon system — override this to solve it
        and return the newly recovered node indices, or ``None``.
        """
        return None

    # -- inactivation decoding -------------------------------------------------

    @property
    def inactivation_runs(self) -> int:
        """Number of GF(2) finisher attempts executed so far."""
        return self._inactivation_runs

    @property
    def fold_runs(self) -> int:
        """The finisher attempts among :attr:`inactivation_runs` that
        factored nothing: they folded the rows that arrived since the
        last attempt into the kept factorization (one ``fold_row``
        each).  ``inactivation_runs - fold_runs`` is how often an
        attempt factored the stalled system from scratch; the core a
        short system keeps (:meth:`_keeps_core`) is factored outside
        any attempt."""
        return self._fold_runs

    def _elimination_nodes(self) -> np.ndarray:
        """Nodes eligible as elimination columns (default: all unknown).

        Subclasses restrict this to nodes that actually participate in
        XOR equations (e.g. Tornado excludes its cap redundancy).
        """
        return np.nonzero(~self.known)[0]

    def _ensure_eq_csr(self) -> None:
        """Lazily build the static equation -> participant nodes CSR."""
        if self._eq_indptr is not None or self._raw_eqs is None:
            return
        order = np.argsort(self._raw_eqs, kind="stable")
        self._eq_nodes = self._raw_nodes[order]
        counts = np.bincount(self._raw_eqs,
                             minlength=self._static_eq_count)
        self._eq_indptr = np.zeros(self._static_eq_count + 1, dtype=np.int64)
        np.cumsum(counts, out=self._eq_indptr[1:])

    def _residual_incidences(self, rows: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray]:
        """``(matrix row, unknown node)`` pairs of equations ``rows``.

        ``matrix row`` is the *position* of the equation inside
        ``rows``; pairs come grouped by ascending matrix row.  One
        gather per storage: the set bits of the packed rows, a flattened
        multi-slice through the static eq -> nodes CSR, the stored
        neighbour arrays of dict-adjacency rows.
        """
        if self._bitmatrix:
            resid = self._dyn_rows[rows] & ~self._known_bits
            return np.nonzero(np.unpackbits(
                resid.view(np.uint8), bitorder="little"
            ).reshape(rows.size, self._words * 64))
        parts_list: List[np.ndarray] = []
        row_list: List[np.ndarray] = []
        static_mask = rows < self._static_eq_count
        static_rows = rows[static_mask]
        if static_rows.size:
            self._ensure_eq_csr()
            starts = self._eq_indptr[static_rows]
            counts = self._eq_indptr[static_rows + 1] - starts
            total = int(counts.sum())
            if total:
                cum = np.cumsum(counts) - counts
                flat = np.repeat(starts - cum, counts) + np.arange(total)
                parts_list.append(self._eq_nodes[flat])
                row_list.append(np.repeat(
                    np.nonzero(static_mask)[0], counts))
        for i in np.nonzero(~static_mask)[0].tolist():
            seg = self._dyn_eq_nodes[int(rows[i])]
            parts_list.append(seg)
            row_list.append(np.full(seg.size, i, dtype=np.int64))
        if not parts_list:
            return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        parts = np.concatenate(parts_list)
        alive = ~self.known[parts]
        return np.concatenate(row_list)[alive], parts[alive]

    def maybe_inactivate(self) -> None:
        """Run the GF(2) fallback when enabled, useful and able to succeed.

        Gated so that repeated feeding stays cheap: a failed solve
        records the system's rank deficit, and the solver is skipped —
        provably without delaying completion — until enough new
        equations have arrived to possibly close it (or peeling shrinks
        the unknown set, which resets the bound).
        """
        if self.inactivation_limit <= 0 or self.is_complete:
            return
        unknowns = int(self._elimination_nodes().size)
        if unknowns > self.inactivation_limit:
            return
        gate = self._stall_gate
        if gate is not None:
            stalled_unknowns, stalled_seen, deficit = gate
            # The failed attempt established the system's rank deficit.
            # Each equation arrival raises the rank by at most one, and
            # each node peeling resolves removes one column while
            # lowering the rank by at most one — either way the deficit
            # shrinks by at most one per event.  Until enough events
            # have accumulated the system is provably still singular.
            progress = ((self._equations_seen - stalled_seen)
                        + (stalled_unknowns - unknowns))
            if progress < deficit:
                return
        self._run_inactivation()

    def _run_inactivation(self) -> bool:
        """Solve the stalled equations directly over GF(2).

        Unknown nodes become columns; every equation that still has
        unknown participants becomes a row whose right-hand side is the
        XOR of its known participants (``acc``).  On full column rank
        all unknowns are recovered at once; a failed attempt records the
        rank deficit for the stall gate.
        """
        unknown_nodes = self._elimination_nodes()
        u = unknown_nodes.size
        if u == 0:
            return True
        rows = np.nonzero(self.unknown_count[:self._num_equations] >= 1)[0]
        short = rows.size < u
        if short and not self._keeps_core():
            # Rank is at most rows.size; at least u - rows.size more
            # equations must arrive before a solve can succeed.
            self._stall_gate = (u, self._equations_seen, u - rows.size)
            return False
        if not short:
            # A short system is factored for the core it leaves behind,
            # not as an attempt: it cannot succeed.
            self._inactivation_runs += 1
        deficit = self._solve_factored(rows, unknown_nodes)
        if deficit:
            self._stall_gate = (u, self._equations_seen, deficit)
            return False
        self._stall_gate = None
        self._mark_known(unknown_nodes)
        # Every node that sits in an equation is known now (what the
        # elimination leaves out sits in none), so peeling has nothing
        # left to recover and no right-hand side will be read again:
        # settle every row's count and id wholesale, no payload moved.
        self.unknown_count[:self._num_equations] = 0
        self.xor_ids[:self._num_equations] = 0
        return True

    def _keeps_core(self) -> bool:
        """Hook: factor a stalled system with fewer rows than unknowns
        and keep the factorization (default: never).

        Such a system cannot be solved yet, but its factorization stays
        valid as long as the known set does not move, and a subclass
        that holds its arrivals back from peeling meanwhile folds each
        one into it instead of factoring again.
        """
        return False

    def _defers_peeling(self) -> bool:
        """True while new equations extend a kept factorization.

        Once the finisher has factored the stalled system, running
        peeling waves between elimination retries would reshape the
        known set and force a full re-factorization per arrival batch.
        Deferring peeling instead — every new equation (degree one
        included) joins the system and folds straight into the kept
        dense core — costs nothing observable: the next successful
        elimination recovers every node either way, at the same packet,
        and a success immediately propagates.
        """
        return self._lazy_peel or self._factored is not None

    def _solve_factored(self, rows: np.ndarray,
                        unknown_nodes: np.ndarray) -> int:
        """The finisher, whatever the equation storage.

        Factor the residual system structurally (:func:`factor_gf2`) —
        or, when the known set has not moved since a failed attempt,
        fold only the rows that arrived since into the kept
        factorization: the old rows kept their residual shape and new
        equations only appended.  Payloads move once, after rank is
        established (:meth:`_replay_payloads`), so a failed attempt
        costs no payload traffic at all.  Returns the rank deficit.
        """
        fact = self._factored
        if fact is not None and fact.num_rows <= rows.size:
            self._fold_runs += 1
            fresh = rows.size - fact.num_rows
            row_rep, nodes = self._residual_incidences(rows[fact.num_rows:])
            bounds = np.searchsorted(row_rep, np.arange(fresh + 1)).tolist()
            nodes_l = nodes.tolist()
            for j in range(fresh):
                fact.fold_row(nodes_l[bounds[j]:bounds[j + 1]])
        else:
            row_rep, nodes = self._residual_incidences(rows)
            fact = self._factored = factor_gf2(
                row_rep, nodes, rows.size, unknown_nodes, self.num_nodes)
        if fact.deficit == 0 and self._acc is not None:
            self._replay_payloads(fact, rows)
        return fact.deficit

    def _replay_payloads(self, fact: GF2Factorization,
                         rows: np.ndarray) -> None:
        """Recover every residual value from a full-rank factorization.

        Payloads travel as python big integers: the peel replay and the
        dense-core combinations are a few thousand XORs of packet-wide
        values, each a single C-level operation on an int, which beats
        numpy's per-call dispatch at the one-to-three-row wave widths a
        residual ripple produces.  One conversion in, one out.  (A
        levelled gather-XOR-scatter replay, like the one a recorded
        :class:`SolvePlan` uses, measures ~15% slower end to end here:
        a decode ripple's waves are one to three rows wide, so per-wave
        dispatch overhead dominates the payload traffic it batches.)
        """
        values = self.values
        width = int(values.shape[1])
        raw = self._acc[rows].tobytes()
        rhs = [int.from_bytes(raw[p * width:(p + 1) * width], "little")
               for p in range(rows.size)]
        val: Dict[int, int] = {}
        for col, combo in zip(fact.inactive, fact.inactive_combos()):
            v = 0
            while combo:
                low = combo & -combo
                v ^= rhs[low.bit_length() - 1]
                combo ^= low
            val[col] = v
        # Replay the peel in topological order: a pivot's value is its
        # row's right-hand side XOR the values of the row's other
        # residual participants, all determined earlier in the order.
        indptr, row_cols = fact.row_indptr, fact.row_cols
        for c, p in fact.pivots:
            val[c] = 0
            v = rhs[p]
            for q in row_cols[indptr[p]:indptr[p + 1]]:
                v ^= val[q]
            val[c] = v
        cols = list(val)
        out = b"".join(val[c].to_bytes(width, "little") for c in cols)
        values[np.asarray(cols, dtype=np.int64)] = np.frombuffer(
            out, dtype=np.uint8).reshape(len(cols), width)


# -- recorded solve plans ------------------------------------------------------


@dataclass(frozen=True)
class SolvePlan:
    """A replayable XOR schedule solving one fixed square GF(2) system.

    Produced by :func:`record_solve_plan`, which factors the system's
    *structure* exactly once (the engine's peel-with-inactivation
    discipline, pivots and dense core included).  Applying the plan to a
    concrete right-hand-side block is then pure data movement: a scratch
    *arena* of payload rows — ``num_inputs`` input rows, one pinned zero
    row, ``num_nodes`` node rows — is swept by dependency-levelled
    *waves*, each wave one segmented gather-XOR-scatter, no solver in
    sight.  The system is square and invertible, so any elimination
    order yields the one solution; replaying this schedule is therefore
    byte-identical to running the full engine on the same system.

    Attributes
    ----------
    num_nodes:
        Unknowns solved by the plan (arena rows ``num_inputs + 1 ..``).
    num_inputs:
        Right-hand-side payload rows the plan consumes (arena rows
        ``0 .. num_inputs - 1``; equations with a zero right-hand side
        read the pinned zero row between the two ranges instead).
    waves:
        The schedule: ``(dst, indptr, src)`` triples of arena row
        indices, applied in order.  Within a wave every source row was
        written by an earlier wave (or is an input), so a wave is safe
        to apply as one batched pass.
    """

    num_nodes: int
    num_inputs: int
    waves: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...] = \
        field(repr=False)

    @property
    def wave_count(self) -> int:
        """Scheduled passes (the substitution DAG's depth)."""
        return len(self.waves)

    @property
    def xor_terms(self) -> int:
        """Total payload rows gathered per apply — the traffic measure."""
        return int(sum(src.size for _, _, src in self.waves))

    def apply(self, inputs: np.ndarray) -> np.ndarray:
        """Solve for all node values given an ``(num_inputs, P)`` block.

        Returns the ``(num_nodes, P)`` solution block, one segmented
        reduction per wave (:func:`~repro.utils.packed.apply_xor_schedule`).
        """
        inputs = np.ascontiguousarray(inputs, dtype=np.uint8)
        if inputs.ndim != 2 or inputs.shape[0] != self.num_inputs:
            raise ParameterError(
                f"solve plan expects a ({self.num_inputs}, P) input block, "
                f"got shape {inputs.shape}")
        width = int(inputs.shape[1])
        arena = np.zeros((self.num_inputs + 1 + self.num_nodes, width),
                         dtype=np.uint8)
        arena[:self.num_inputs] = inputs
        apply_xor_schedule(arena, self.waves)
        return arena[self.num_inputs + 1:]


def record_solve_plan(num_nodes: int, indptr: np.ndarray,
                      participants: np.ndarray,
                      rhs_rows: np.ndarray,
                      num_inputs: int) -> SolvePlan:
    """Factor a square XOR system into a :class:`SolvePlan` once.

    Equation ``e`` states that the XOR of nodes
    ``participants[indptr[e]:indptr[e+1]]`` (duplicate-free, as
    everywhere in the engine) equals input payload row ``rhs_rows[e]``
    — or zero when ``rhs_rows[e]`` is ``-1``.  The system must
    determine every node (square and invertible, e.g. the Raptor
    systematic pre-solve); a rank-deficient system raises
    :class:`~repro.errors.ParameterError`.

    The factorization is the engine finisher's own (:func:`factor_gf2`,
    over the whole system — nothing is known yet).  But instead of
    moving payloads the plan *records* where each node's value comes
    from — an inactive column is the XOR of the right-hand sides its
    dense-core combination names, a pivot is its row's right-hand side
    XOR the row's other (earlier-determined) participants — and batches
    those reads into dependency-levelled waves for
    :meth:`SolvePlan.apply`.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    flat = np.asarray(participants, dtype=np.int64)
    rhs_rows = np.asarray(rhs_rows, dtype=np.int64)
    m = indptr.size - 1
    num_nodes = int(num_nodes)
    num_inputs = int(num_inputs)
    if rhs_rows.size != m:
        raise ParameterError(
            f"rhs_rows names {rhs_rows.size} rows for {m} equations")
    if m < num_nodes:
        raise ParameterError(
            f"{m} equations cannot determine {num_nodes} nodes")
    if flat.size and np.any((flat < 0) | (flat >= num_nodes)):
        raise ParameterError("equation participant outside node range")
    if np.any(rhs_rows >= num_inputs) or np.any(rhs_rows < -1):
        raise ParameterError("equation rhs outside input range")
    fact = factor_gf2(np.repeat(np.arange(m), np.diff(indptr)), flat, m,
                      np.arange(num_nodes), num_nodes)
    if fact.deficit:
        raise ParameterError(
            "solve plan requires a full-rank system "
            f"(dense core rank {len(fact.basis)} < {len(fact.inactive)} "
            "inactivated columns)")
    # Per-node source rows in arena coordinates, plus dependency level.
    zero_row = num_inputs
    base = num_inputs + 1
    level = [0] * num_nodes
    srcs: List[Optional[List[int]]] = [None] * num_nodes
    for col, cb in zip(fact.inactive, fact.inactive_combos()):
        # The combo's set bits, ascending, name the rows whose rhs to XOR.
        named = rhs_rows[np.nonzero(np.unpackbits(
            np.frombuffer(cb.to_bytes((m + 7) >> 3, "little"), np.uint8),
            bitorder="little"))[0]]
        srcs[col] = named[named >= 0].tolist() or [zero_row]
    rhs_of = rhs_rows.tolist()
    row_indptr, row_cols = fact.row_indptr, fact.row_cols
    for c, p in fact.pivots:
        rows = [rhs_of[p]] if rhs_of[p] >= 0 else []
        lvl = 0
        for q in row_cols[row_indptr[p]:row_indptr[p + 1]]:
            if q != c:
                lvl = max(lvl, level[q] + 1)
                rows.append(base + q)
        level[c] = lvl
        srcs[c] = rows or [zero_row]
    # Batch nodes into waves by level; within a wave, ascending node id
    # (the stable sort keeps it).
    levels = np.asarray(level, dtype=np.int64)
    order = np.argsort(levels, kind="stable")
    cuts = np.nonzero(np.diff(levels[order]))[0] + 1
    waves: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for nodes in np.split(order, cuts) if num_nodes else ():
        segs = [srcs[n] for n in nodes.tolist()]
        wave_indptr = np.zeros(nodes.size + 1, dtype=np.int64)
        np.cumsum([len(seg) for seg in segs], out=wave_indptr[1:])
        src = np.fromiter(chain.from_iterable(segs), dtype=np.int64,
                          count=int(wave_indptr[-1]))
        waves.append((base + nodes, wave_indptr, src))
    return SolvePlan(num_nodes=num_nodes, num_inputs=num_inputs,
                     waves=tuple(waves))
