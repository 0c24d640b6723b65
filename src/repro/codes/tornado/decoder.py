"""Peeling decoder for Tornado cascades.

Every right node of every cascade graph yields one XOR *equation*: the
XOR of the right node's value and all its left neighbours' values is
zero.  The equation system is therefore known in full before the first
packet arrives, and decoding runs on the shared
:class:`~repro.codes.peeling.PeelingEngine` (also used by the LT rateless
decoder) in its *static* configuration: equations are installed up
front, packets are fed as direct node observations, and the engine's
wave-vectorised substitution rule does the rest.

What Tornado adds on top of the generic engine:

* the cascade's *cap* — a small Reed-Solomon code over the last graph
  layer — is solved as soon as enough of its participants are known
  (the engine's quiescence hook);
* packet-feeding bookkeeping: index validation, duplicate counting, and
  the paper's ``payload_size`` constraints for the GF(2^16) cap;
* *when* decoding starts: no erasure code completes on fewer than ``k``
  distinct packets, so until the ``k``-th arrives a packet is validated,
  deduplicated, counted and banked in the row it will occupy, and the
  engine sees nothing; the ``k``-th releases everything held as one
  observation (Section 7.2's *statistical* client, with the decision
  taken by the decoder rather than by a packet count above it);
* *how* the tail ends: once the cap is solved, a stalled block keeps
  one GF(2) factorization of what is left and banks every later packet
  behind it until the system has full rank, then solves once
  (:meth:`PeelingDecoder._fold_tail`).

The decoder can run in two modes:

* **payload mode** — actual packet contents are XORed; :meth:`source_data`
  returns the reconstructed file block.
* **structural mode** (``payload_size=None``) — only indices are tracked;
  used by the large-scale simulations of Section 6, where the question is
  *when* decoding completes, not what the bytes are.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.codes.peeling import PeelingEngine
from repro.codes.tornado.graph import CascadeStructure
from repro.errors import ParameterError


class PeelingDecoder(PeelingEngine):
    """Incremental peeling decoder over a :class:`CascadeStructure`.

    Parameters
    ----------
    structure:
        The cascade shared between encoder and decoder.
    payload_size:
        Packet payload length in bytes; ``None`` selects structural mode.
    inactivation_limit:
        When positive, enables *inactivation decoding*: if peeling stalls
        with at most this many unknown packets remaining, the stalled XOR
        equations are solved directly over GF(2) (the engine's one
        finisher, shared with LT and Raptor).  This is the standard
        modern extension of peeling (cf. RaptorQ, RFC 6330); it trades
        extra decode work for a lower reception overhead — the same
        axis along which the paper's Tornado B trades against
        Tornado A.  Zero disables the fallback (pure peeling, the
        paper's original decoder).
    """

    def __init__(self, structure: CascadeStructure,
                 payload_size: Optional[int] = None,
                 inactivation_limit: int = 0):
        if payload_size is not None:
            if payload_size <= 0:
                raise ParameterError("payload_size must be positive")
            if (structure.cap_code.field.dtype.itemsize > 1
                    and payload_size % 2):
                raise ParameterError(
                    "cap code runs over GF(2^16); payload size must be even")
        self.structure = structure
        # Which encoding packets arrived on the wire — not the engine's
        # ``known``, which also holds what peeling recovered: a first
        # packet for a recovered node is still a distinct reception
        # (Section 7.3's eta_d counts repeats, not redundancy).
        self._received = np.zeros(structure.n, dtype=bool)
        self._packets_added = 0
        self._duplicates = 0
        # True until the k-th distinct packet (or a read of partial
        # state): arrivals are banked, not decoded — see :meth:`_bank`.
        self._holding = True
        super().__init__(structure.n,
                         payload_size=payload_size,
                         source_count=structure.k,
                         inactivation_limit=inactivation_limit)
        self._install_cascade_equations()
        # Cap bookkeeping.
        self._cap_members = np.zeros(structure.n, dtype=bool)
        self._cap_members[structure.cap_member_indices()] = True
        self._cap_known = 0
        self._cap_solved = False
        # Tail packets banked behind the kept factorization, in arrival
        # order (see :meth:`_fold_tail`).
        self._tail: List[int] = []

    # -- construction ---------------------------------------------------------

    def _install_cascade_equations(self) -> None:
        st = self.structure
        part_nodes = []
        part_eqs = []
        eq_base = 0
        for gi, graph in enumerate(st.graphs):
            left_off = st.layer_offsets[gi]
            right_off = st.layer_offsets[gi + 1]
            # Left neighbours participate in their right node's equation.
            part_nodes.append(graph.edge_left + left_off)
            part_eqs.append(graph.edge_right + eq_base)
            # The right node participates in its own equation.
            part_nodes.append(
                np.arange(graph.right_size, dtype=np.int64) + right_off)
            part_eqs.append(
                np.arange(graph.right_size, dtype=np.int64) + eq_base)
            eq_base += graph.right_size
        if part_nodes:
            nodes = np.concatenate(part_nodes)
            eqs = np.concatenate(part_eqs)
        else:
            nodes = np.zeros(0, dtype=np.int64)
            eqs = np.zeros(0, dtype=np.int64)
        self.load_static_equations(eq_base, nodes, eqs)

    # -- public state -----------------------------------------------------------

    @property
    def packets_added(self) -> int:
        """Distinct encoding packets fed in so far (wire-distinct: a
        packet peeling had already recovered still counts once)."""
        return self._packets_added

    @property
    def duplicates_seen(self) -> int:
        """Packets fed in whose index had arrived before."""
        return self._duplicates

    @property
    def min_additional_packets(self) -> int:
        """Lower bound on further distinct packets needed: no erasure
        code completes below ``k`` distinct receptions, and the cascade
        offers no tighter bound short of running the decode."""
        if self.is_complete:
            return 0
        return max(1, self.structure.k - self._packets_added)

    @property
    def held_rows(self) -> int:
        """Packets held below ``k`` distinct ones, not yet shown to the
        engine (a tail banked behind a kept factorization is folded,
        not held: see :meth:`_fold_tail`)."""
        return self._packets_added if self._holding else 0

    @property
    def source_known_count(self) -> int:
        """Source packets recovered so far (releases a hold first, so it
        reads what decoding every arrival on the spot would; a packet
        :meth:`_enter` folded into a kept factorization counts once the
        solve recovers it)."""
        self._release()
        return self._source_known

    def missing_source_indices(self) -> np.ndarray:
        """Source packets not yet recovered (releases a hold first)."""
        self._release()
        return super().missing_source_indices()

    # -- feeding packets ----------------------------------------------------------

    def _bank(self, nodes, payloads: Optional[np.ndarray]) -> None:
        """Hold fresh packets ``nodes`` until the block can complete.

        Below ``k`` distinct packets (:attr:`min_additional_packets`)
        no amount of peeling finishes the block, so an arrival is only
        kept: its payload written once, into the ``values`` row it will
        occupy anyway; ``_received`` is the list of what is held.  The
        ``k``-th distinct packet releases everything as one observation
        and decoding runs on arrival from then on.
        """
        if self.values is not None:
            self.values[nodes] = payloads
        if self._packets_added >= self.structure.k:
            self._release()

    def _release(self) -> None:
        """Show the engine every held packet at once; ends the hold."""
        if not self._holding:
            return
        self._holding = False
        nodes = np.nonzero(self._received)[0]
        if nodes.size:
            self.observe_nodes(nodes, None if self.values is None
                               else self.values[nodes])
            self.maybe_inactivate()

    def _spent(self, nodes: np.ndarray) -> np.ndarray:
        """True for cap redundancy once the cap is solved: it sits in no
        XOR equation and the one system it served is done, so it can
        teach the engine nothing — and marking it known would cost the
        finisher its kept factorization."""
        return self._cap_solved & (nodes >= self.structure.cap_offset)

    def _enter(self, nodes: np.ndarray,
               payloads: Optional[np.ndarray]) -> None:
        """Show the engine fresh packets for nodes it has not recovered:
        observed and peeled, with the finisher considered after — or,
        once the cap is solved and the finisher keeps a factorization of
        the stalled system, banked behind it (:meth:`_fold_tail`)."""
        if self._cap_solved and self._factored is not None:
            self._fold_tail(nodes, payloads)
            return
        self.observe_nodes(nodes, payloads)
        self.maybe_inactivate()

    def _keeps_core(self) -> bool:
        # Once the cap is solved nothing but a packet moves the known
        # set, and every packet folds into the kept core instead.
        return self._cap_solved

    def _fold_tail(self, nodes: np.ndarray,
                   payloads: Optional[np.ndarray]) -> None:
        """Bank tail packets behind the kept factorization until the
        system has full rank, then solve once.

        A packet is the unit row ``x[node] = payload``.  Every node it
        can name is a column of the kept factorization, so the row folds
        straight into its dense core (``GF2Factorization.fold_row``) and
        the core's deficit is the system's, exactly: no engine call and
        no payload move until it reads zero.  Meanwhile the packet's
        payload is written once, into the rhs row its equation will
        occupy (``_pending_rhs``), and its id is held.  The packet that
        brings the deficit to zero — it may sit mid-batch; the rest of
        the batch finds the block complete — enters every held row as
        one ``add_equations`` batch, and one solve recovers every
        unknown.  Eager intake completes on the same packet: a block's
        checks are functions of its source, so the source is determined
        exactly when every column is, and its finisher solves at full
        rank.  Until then a banked node is not ``known``, so
        partial-progress reads trail eager peeling.
        """
        fact = self._factored
        assert fact is not None
        listed = nodes.tolist()
        take = 0
        while fact.deficit and take < len(listed):
            fact.fold_row(listed[take:take + 1])
            take += 1
        held = len(self._tail)
        if payloads is not None:
            self._pending_rhs(held + take)[held:] = payloads[:take]
        self._tail.extend(listed[:take])
        if fact.deficit:
            return
        ids = np.asarray(self._tail, dtype=np.int64)
        self._tail = []
        self.add_equations(np.arange(ids.size + 1), ids,
                           None if self.values is None
                           else self._pending_rhs(ids.size))
        # The stall gate passes: the held rows are at least the deficit
        # it recorded when the core was built.
        self.maybe_inactivate()

    def add_packet(self, index: int, payload: Optional[np.ndarray] = None) -> bool:
        """Feed one packet; True when it was new (a batch of one)."""
        return bool(self._intake((index,), None if payload is None
                                 else np.asarray(payload)[np.newaxis]))

    def add_packets(self, indices: Sequence[int],
                    payloads: Optional[np.ndarray] = None) -> int:
        """Feed a batch of packets at once; returns the number that were new.

        The one intake, at any batch size: validated before any state
        moves, deduplicated and counted in one pass over the ids (cheap
        at one row, where a packet-by-packet stream lands), then banked
        while the hold lasts, dropped once the block is complete, and
        otherwise shown to the engine unless peeling has recovered (or
        the solved cap spent) the node.
        """
        return self._intake(indices, payloads)

    def _intake(self, indices: Sequence[int],
                payloads: Optional[np.ndarray]) -> int:
        """The body of :meth:`add_packet` and :meth:`add_packets`."""
        idx = np.asarray(indices, dtype=np.int64)
        listed = idx.tolist()
        n = self.structure.n
        bad = [index for index in listed if not 0 <= index < n]
        if bad:
            raise ParameterError(f"packet index {bad[0]} outside [0, {n})")
        self._check_width(payloads)
        if listed and self.values is not None and payloads is None:
            raise ParameterError("payload decoder requires packet payloads")
        rows = []
        for row, index in enumerate(listed):
            if not self._received[index]:
                self._received[index] = True
                rows.append(row)
        self._duplicates += len(listed) - len(rows)
        self._packets_added += len(rows)
        if not rows:
            return 0
        nodes = idx[rows]
        block = (None if self.values is None
                 else np.asarray(payloads, dtype=np.uint8)[rows])
        if self._holding:
            self._bank(nodes, block)
        elif not self.is_complete:
            novel = ~(self.known[nodes] | self._spent(nodes))
            if novel.any():
                self._enter(nodes[novel],
                            None if block is None else block[novel])
        return len(rows)

    # -- cap handling (engine hooks) ---------------------------------------------

    def _mark_known(self, nodes: np.ndarray) -> None:
        super()._mark_known(nodes)
        self._cap_known += int(np.count_nonzero(self._cap_members[nodes]))

    def _elimination_nodes(self) -> np.ndarray:
        # Cap redundancy participates in no XOR equation, so it can never
        # be an elimination column.
        return np.nonzero(~self.known[:self.structure.cap_offset])[0]

    def _on_quiescent(self) -> Optional[np.ndarray]:
        """Solve the cap RS system once enough participants are known.

        Returns the newly recovered node indices for the propagation loop
        to continue with, or ``None``.
        """
        st = self.structure
        if self._cap_solved or self._cap_known < st.last_layer_size:
            return None
        last_off = st.last_layer_offset
        last_size = st.last_layer_size
        last_nodes = np.arange(last_off, last_off + last_size)
        missing_local = np.nonzero(~self.known[last_nodes])[0]
        self._cap_solved = True
        if missing_local.size == 0:
            return None
        recovered_nodes = last_nodes[missing_local]
        if self.values is not None:
            self._solve_cap_payloads(missing_local)
        self._mark_known(recovered_nodes)
        return recovered_nodes

    def _solve_cap_payloads(self, missing_local: np.ndarray) -> None:
        """Recover missing last-layer payloads via the cap RS decode.

        The last graph layer and the cap redundancy are adjacent node
        ranges, in the cap code's own codeword order, so the known mask
        and the value rows from ``last_layer_offset`` on are the
        decode's index array and payload block as they stand.  The
        decode reads the received source rows and as many redundant ones
        as are missing — the first ``code.k`` known positions.
        """
        st = self.structure
        code = st.cap_code
        last_off = st.last_layer_offset
        values = self.values
        assert values is not None
        have = np.nonzero(self.known[last_off:])[0][:code.k]
        decoded = code.decode_rows(
            have, values[last_off + have].view(code.field.dtype))
        values[last_off + missing_local] = decoded[missing_local].view(
            np.uint8)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PeelingDecoder(k={self.structure.k}, "
                f"packets_added={self.packets_added}, "
                f"held_rows={self.held_rows}, "
                f"source_known={self._source_known})")
