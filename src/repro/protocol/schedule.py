"""Reverse-binary packet scheduling across layers (Section 7.1.2).

The encoding (n packets) is divided into blocks of ``B = 2^(g-1)``
packets.  Transmission proceeds in *rounds*; within a round each layer
sends a fixed sub-range of positions from every block, the same range in
all blocks (Figure 7).  The ranges are chosen by the paper's
reverse-binary rule so that:

* within a round, the layers' ranges tile the block exactly (a level-
  (g-1) subscriber receives every block position once per round);
* every layer, and every cumulative subscription level, is sent a full
  permutation of the encoding before any packet repeats — the **One
  Level Property**: a receiver that stays at one level and loses less
  than ``(c-1-eps)/c`` of packets decodes before seeing any duplicate.

Concretely, with ``j' = round mod 2^(g-1)`` and ``b_p`` the p-th least
significant bit of ``j'``, the block positions sent in that round are
(as g-1 bit strings, most significant first):

* layer g-1:      prefix ``b_0``                          (half the block)
* layer g-1-m:    prefix ``~b_0 ~b_1 ... ~b_(m-1) b_m``   (1 <= m <= g-2)
* layer 0:        the single position ``~b_0 ~b_1 ... ~b_(g-2)``

which reproduces Table 5 exactly (see tests/test_schedule.py).
"""

from __future__ import annotations

from itertools import count
from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.protocol.congestion import CongestionPolicy
from repro.protocol.layering import LayerConfig

#: Block groups in one sweep of the layered session's schedule (about
#: as many wall-clock rounds): fine enough that a download spans
#: several synchronization points and bursts.
SWEEP_ROUNDS = 16


def _bit(value: int, position: int) -> int:
    return (value >> position) & 1


def layer_block_range(layer: int, round_index: int,
                      num_layers: int) -> Tuple[int, int]:
    """Block positions ``[start, start + length)`` sent by ``layer``.

    ``round_index`` counts rounds from zero (the paper's Table 5 labels
    them from one: its "Rd 1" is round_index 0).
    """
    g = num_layers
    if not 0 <= layer < g:
        raise ParameterError(f"layer {layer} outside [0, {g})")
    if g == 1:
        return 0, 1
    period = 1 << (g - 1)
    j = round_index % period
    if layer == g - 1:
        prefix_bits = [_bit(j, 0)]
    elif layer >= 1:
        m = g - 1 - layer
        prefix_bits = [1 - _bit(j, p) for p in range(m)] + [_bit(j, m)]
    else:
        prefix_bits = [1 - _bit(j, p) for p in range(g - 1)]
    free_bits = (g - 1) - len(prefix_bits)
    start = 0
    for bit in prefix_bits:
        start = (start << 1) | bit
    start <<= free_bits
    return start, 1 << free_bits


def layered_rounds(config: LayerConfig, policy: CongestionPolicy,
                   num_blocks: int, blocks_per_round: int
                   ) -> Iterator[Tuple[List[np.ndarray], bool]]:
    """The sender's walk: ``(per_layer_positions, was_burst)`` for each
    wall-clock round, without end.

    One schedule round sends every layer's range (Figure 7) in
    ``blocks_per_round`` consecutive blocks of the ``num_blocks``; the
    reverse-binary pattern advances once per sweep over all blocks.  A
    burst round (``policy``) packs two schedule rounds into one
    round-time, doubling every layer's rate.  Positions are sweep-major
    (sweep ``s`` sends ``s * num_blocks * block_size + offset``), so
    none repeats; a session maps them onto encoding ids.
    """
    if not 1 <= blocks_per_round <= num_blocks:
        raise ParameterError(
            f"blocks_per_round {blocks_per_round} outside [1, {num_blocks}]")
    g = config.num_layers
    block = config.block_size
    rounds_per_sweep = -(-num_blocks // blocks_per_round)
    schedule_round = 0
    for time_round in count():
        burst = policy.is_burst_round(time_round)
        chunks: List[List[np.ndarray]] = [[] for _ in range(g)]
        for _ in range(2 if burst else 1):
            pattern, group = divmod(schedule_round, rounds_per_sweep)
            first = group * blocks_per_round
            bases = (np.arange(first, min(first + blocks_per_round,
                                          num_blocks)) * block
                     + pattern * num_blocks * block)
            for layer in range(g):
                start, length = layer_block_range(layer, pattern, g)
                chunks[layer].append((bases[:, None] + np.arange(
                    start, start + length)[None, :]).ravel())
            schedule_round += 1
        yield [np.concatenate(layer) for layer in chunks], burst


def verify_one_level_property(config: LayerConfig,
                              encoding_size: int) -> bool:
    """Check the One Level Property for every subscription level.

    Walks :func:`layered_rounds` as the 4-layer session sends it
    (:data:`SWEEP_ROUNDS` block groups a sweep, Figure 8's burst every
    fourth round): the first ``encoding_size`` positions each level
    receives must cover the encoding.  "First" is schedule order, the
    order of sweep-major positions: a burst round straddling a sweep
    boundary hands a level the next sweep's lower layers before this
    sweep's upper ones, an order within one round-time that the
    property does not speak to.  Used by tests and by Table 5.
    """
    block = config.block_size
    if encoding_size % block:
        raise ParameterError(
            f"encoding size {encoding_size} not a multiple of block {block}")
    num_blocks = encoding_size // block
    for level in range(config.num_layers):
        received: List[np.ndarray] = []
        for positions, _ in layered_rounds(
                config, CongestionPolicy(burst_interval=4), num_blocks,
                max(1, num_blocks // SWEEP_ROUNDS)):
            received += positions[:level + 1]
            if sum(p.size for p in received) >= encoding_size:
                break
        first = np.sort(np.concatenate(received))[:encoding_size]
        if np.unique(first % encoding_size).size != encoding_size:
            return False
    return True


def table5_matrix(num_layers: int = 4, rounds: int = 8) -> List[List[str]]:
    """Render the paper's Table 5: per layer, the ranges sent per round.

    Rows are layers from the top (layer g-1) down to 0, matching the
    paper's layout; entries are "a-b" ranges or single positions.
    """
    rows = []
    for layer in range(num_layers - 1, -1, -1):
        row = []
        for rnd in range(rounds):
            start, length = layer_block_range(layer, rnd, num_layers)
            if length == 1:
                row.append(str(start))
            else:
                row.append(f"{start}-{start + length - 1}")
        rows.append(row)
    return rows
