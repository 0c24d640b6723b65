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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from repro.errors import ParameterError
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
    total_k: int
    #: server emissions until the client completed (the wire cost).
    packets_sent: int
    #: survivors the client saw (= sent minus channel losses).
    packets_received: int
    distinct_received: int
    #: True when payloads were simulated and reassembly was byte-exact.
    verified: bool

    @property
    def reception_overhead(self) -> float:
        """epsilon such that (1+epsilon) * total_k packets were received."""
        return self.packets_received / self.total_k - 1.0


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
    # sequential run's.  A window is the server's id (and payload)
    # arrays — no packet objects, no headers.
    while not client.is_complete and channel.sent < limit:
        n = min(_CHUNK, limit - channel.sent)
        arrived = np.flatnonzero(channel.delivery_mask(n))
        blocks, indices, rows = server.window(n)
        used = client.receive_window(blocks[arrived], indices[arrived],
                                     None if rows is None else rows[arrived])
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
        total_k=codec.total_k,
        packets_sent=channel.sent,
        packets_received=client.total_received,
        distinct_received=client.distinct_received,
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
