"""Block-segmented transfer scenarios (the Figure 3 story at file scale).

One harness, one loop, two modes — both ask the same
:class:`~repro.transfer.server.TransferServer` what each emission
carries and cross the same channel:

* **payload mode** — a full pipeline run: random object bytes, per-block
  encode, striped stream through a lossy channel, per-block incremental
  decode, byte-exact reassembly check.  The ground truth.
* **structural mode** — indices only, no payload XOR work: the server
  holds no data, survivors feed a payload-less
  :class:`~repro.transfer.client.TransferClient`.  Orders of magnitude
  faster, for sweeps over many blocks/loss rates.

:func:`compare_schedules` runs both cross-block schedules on the same
geometry, reproducing the paper's interleaving trade-off: proportional
striping fills all blocks in near-lockstep (residual coupon-collector
tail only), while sequential visits make a receiver that lost packets
of block ``b`` wait a whole revolution for ``b`` to come around again.

:func:`packets_until_decode` answers Figures 4-6 and Table 4 — how many
packets does one receiver take before it can decode? — off the same
server's emissions (:class:`SlotWindow`), through the receiver's own
channel: a Reed-Solomon block needs exactly its ``k_b`` distinct packets
(MDS), a Tornado block a draw from its
:class:`~repro.sim.overhead.ThresholdPool`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import DecodeFailure, ParameterError
from repro.fountain.metrics import ReceptionStats
from repro.net.channel import LossyChannel
from repro.net.loss import LossModel, as_loss_model
from repro.net.transport.base import EMISSION_LIMIT_FACTOR
from repro.transfer.blocks import BlockPlan
from repro.transfer.client import TransferClient
from repro.transfer.codec import ObjectCodec
from repro.transfer.server import TransferServer
from repro.utils.rng import spawn_rng

#: rng stream labels (kept distinct from code-graph streams).
_DATA_STREAM = 0xDA7A
_LOSS_STREAM = 0x1055

#: window drawn and crossed in one pass.  The part of the last window
#: past the completing emission is drawn and taken back, so this stays
#: near the size of a small transfer: 512 read no slower than 4096 on
#: 8 MiB objects and 2-3x faster on 384 KiB payload runs.
_CHUNK = 512


@dataclass(frozen=True)
class TransferRunResult:
    """Outcome of one simulated block-segmented download."""

    family: str
    schedule: str
    file_size: int
    packet_size: int
    num_blocks: int
    #: server emissions until the client completed (the wire cost).
    packets_sent: int
    #: the client's counts: ``total_received`` is the survivors it saw
    #: (= sent minus channel losses), ``source_packets`` the total k.
    stats: ReceptionStats
    #: True when payloads were simulated and reassembly was byte-exact.
    verified: bool


def simulate_transfer(file_size: int,
                      packet_size: int = 1024,
                      block_packets: int = 256,
                      family: str = "tornado-b",
                      schedule: str = "interleave",
                      loss: Union[float, LossModel] = 0.0,
                      seed: int = 0,
                      payloads: bool = True) -> TransferRunResult:
    """One download of a ``file_size``-byte object, segmented into blocks.

    ``loss`` is a Bernoulli rate or any :class:`~repro.net.loss.LossModel`;
    emissions are bounded at the transports' ``EMISSION_LIMIT_FACTOR *
    total_k`` so a pathological run fails loudly instead of spinning.
    """
    plan = BlockPlan(file_size, packet_size, block_packets)
    codec = ObjectCodec(plan, code=family, seed=seed)
    channel = LossyChannel(as_loss_model(loss),
                           rng=spawn_rng(seed, _LOSS_STREAM))
    limit = EMISSION_LIMIT_FACTOR * codec.total_k
    data = None
    if payloads:
        data = spawn_rng(seed, _DATA_STREAM).integers(
            0, 256, size=file_size, dtype=np.uint8).tobytes()
    server = TransferServer(codec, data, schedule=schedule, seed=seed)
    client = TransferClient(codec,
                            payload_size=packet_size if payloads else None)
    # Whole windows, result-identical to crossing the channel one packet
    # at a time: receive_window says how many survivors the client took
    # before completing, and the emissions after the one that completed
    # it go back to the server and the channel, so the counters are the
    # sequential run's.  A window is the server's id arrays, and only
    # the rows that arrive are synthesised — no packet objects.
    header = codec.header_size
    while not client.is_complete and channel.sent < limit:
        n = min(_CHUNK, limit - channel.sent)
        arrived = np.flatnonzero(channel.delivery_mask(n))
        blocks, indices, serials = (ids[arrived]
                                    for ids in server.draw_ids(n))
        rows = (server.records(blocks, indices, serials)[:, header:]
                if payloads else None)
        used = client.receive_window(blocks, indices, rows)
        if client.is_complete:
            unsent = n - int(arrived[used - 1]) - 1
            server.unwind(unsent)
            channel.unwind(unsent)
    if not client.is_complete:
        raise ParameterError(
            f"transfer did not complete within {limit} emissions; "
            "lower the loss rate")
    return TransferRunResult(
        family=family,
        schedule=schedule,
        file_size=plan.file_size,
        packet_size=plan.packet_size,
        num_blocks=plan.num_blocks,
        packets_sent=channel.sent,
        stats=client.stats(),
        verified=payloads and client.object_data() == data,
    )


def compare_schedules(file_size: int,
                      packet_size: int = 1024,
                      block_packets: int = 256,
                      family: str = "tornado-b",
                      loss: Union[float, LossModel] = 0.1,
                      seed: int = 0,
                      payloads: bool = False
                      ) -> Dict[str, TransferRunResult]:
    """Interleaved vs. sequential striping on identical geometry."""
    return {
        name: simulate_transfer(file_size, packet_size, block_packets,
                                family=family, schedule=name, loss=loss,
                                seed=seed, payloads=payloads)
        for name in ("interleave", "sequential")
    }


class _EvenPlan(BlockPlan):
    """A plan of one-byte packets whose blocks are as even as possible,
    larger blocks first (the paper's interleaved split)."""

    def _extent(self, block: int) -> Tuple[int, int]:
        base, extra = divmod(self.file_size, self.num_blocks)
        return block * base + min(block, extra), base + (block < extra)


class SlotWindow:
    """The emission order of the structural :class:`TransferServer` that
    serves ``total_k`` source packets in ``ceil(total_k / block_k)``
    blocks as even as possible (the paper's interleaved split, larger
    blocks first), each coded with ``code`` (one-byte packets: only the
    ids matter), drawn a revolution at a time as far as any receiver
    reads, and shared by all of them.  Slots are global ids: block
    ``b``'s index ``i`` is ``first[b] + i``.  Fixed-rate codes only — a
    need is counted out of each block's ``n``."""

    def __init__(self, total_k: int, block_k: int, code: str):
        plan = _EvenPlan(total_k, 1, block_k)
        self.codec = ObjectCodec(plan, code=code, seed=0)
        if self.codec.is_rateless:
            raise ParameterError(f"{code} is rateless: a slot window "
                                 "counts out of each block's n")
        self._server = TransferServer(self.codec)
        self.block_n = np.array([self.codec.code_for(b).n
                                 for b in range(plan.num_blocks)])
        self._first = np.cumsum(self.block_n) - self.block_n
        #: the block of every global id.
        self.block_of = np.repeat(np.arange(self.block_n.size), self.block_n)
        self._revolutions: List[np.ndarray] = []

    def revolution(self, r: int) -> np.ndarray:
        """The ids of revolution ``r``: the ``len(block_of)`` emissions
        from ``r * len(block_of)`` on."""
        while len(self._revolutions) <= r:
            blocks, indices, _ = self._server.draw_ids(self.block_of.size)
            self._revolutions.append(self._first[blocks] + indices)
        return self._revolutions[r]


def fresh_arrivals(ids: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """The positions in ``ids`` — one receiver's arrivals, in order, as
    global ids — of the first sight of each id not marked in ``seen``,
    in order; marks them seen.  A carousel's wrap-around duplicates,
    across calls or inside one, are the arrivals left out."""
    first = np.flatnonzero(~seen[ids])
    # an id met again inside ``ids`` keeps only its earliest position
    owner = np.full(seen.size, ids.size)
    np.minimum.at(owner, ids[first], first)
    first = first[owner[ids[first]] == first]
    seen[ids[first]] = True
    return first


def packets_until_decode(window: SlotWindow, need: ArrayLike,
                         channel: LossyChannel) -> int:
    """Packets one receiver takes from ``window`` through ``channel``
    until every block ``b`` holds ``need[b]`` distinct packets (a scalar
    need is every block's), wrap-around duplicates included — the
    denominator of the paper's reception efficiency.  A receiver still
    short after the revolutions that cover ``EMISSION_LIMIT_FACTOR *
    total_k`` emissions raises :class:`~repro.errors.DecodeFailure`."""
    needs = np.broadcast_to(np.asarray(need, dtype=np.int64),
                            window.block_n.shape)
    if np.any(needs < 1) or np.any(needs > window.block_n):
        raise ParameterError(f"needs {needs.tolist()} outside [1, n_b] "
                             f"for n_b = {window.block_n.tolist()}")
    size = window.block_of.size
    seen = np.zeros(size, dtype=bool)
    have = np.zeros(needs.size, dtype=np.int64)
    received = 0
    for r in range(-(-EMISSION_LIMIT_FACTOR * window.codec.total_k // size)):
        ids = window.revolution(r)[channel.delivery_mask(size)]
        first = fresh_arrivals(ids, seen)
        blocks = window.block_of[ids[first]]
        counts = np.bincount(blocks, minlength=needs.size)
        short, have = needs - have, have + counts
        if np.all(have >= needs):
            # a block still short completes on its short-th fresh
            # arrival, and the last of those completes the receiver
            by_block = first[np.argsort(blocks, kind="stable")]
            due = np.flatnonzero(short > 0)
            return received + 1 + int(by_block[
                (np.cumsum(counts) - counts)[due] + short[due] - 1].max())
        received += ids.size
    raise DecodeFailure(f"receiver short of its need after {received} "
                        "packets")
