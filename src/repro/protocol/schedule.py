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

from itertools import islice
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.protocol.layering import LayerConfig


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


def round_schedule(round_index: int, num_layers: int) -> List[Tuple[int, int]]:
    """Per-layer ``(start, length)`` ranges for one round, layer 0 first."""
    return [layer_block_range(layer, round_index, num_layers)
            for layer in range(num_layers)]


def _layers_stream(layers: Sequence[int], config: LayerConfig,
                   encoding_size: int,
                   num_rounds: int) -> Iterator[Tuple[int, int, int]]:
    """``(round, layer, encoding_index)`` for ``layers``, round by round.

    Within a round, a layer walks its block range through every block in
    order (the intra-round order is immaterial to the One Level Property
    but fixed here for reproducibility).  ``encoding_size`` must be a
    multiple of the block size; the protocol server pads its permuted
    encoding up to one (see :class:`~repro.protocol.server.LayeredServer`).
    """
    block = config.block_size
    if encoding_size % block:
        raise ParameterError(
            f"encoding size {encoding_size} not a multiple of block {block}")
    for rnd in range(num_rounds):
        for layer in layers:
            start, length = layer_block_range(layer, rnd, config.num_layers)
            for base in range(0, encoding_size, block):
                for offset in range(start, start + length):
                    yield rnd, layer, base + offset


def transmission_stream(layer: int, config: LayerConfig, encoding_size: int,
                        num_rounds: int) -> Iterator[int]:
    """Encoding indices sent on ``layer`` over ``num_rounds`` rounds."""
    for _, _, index in _layers_stream([layer], config, encoding_size,
                                      num_rounds):
        yield index


def one_level_stream(level: int, config: LayerConfig, encoding_size: int,
                     num_rounds: int) -> Iterator[Tuple[int, int, int]]:
    """Merged stream seen at subscription ``level``.

    Yields ``(round, layer, encoding_index)`` triples in transmission
    order: rounds outermost, then layers top-down within the round (the
    relative order of concurrent layers within a round is a modelling
    choice; any order preserves the One Level Property, which is a
    statement about whole rounds).
    """
    return _layers_stream(range(level + 1), config, encoding_size, num_rounds)


def verify_one_level_property(config: LayerConfig,
                              encoding_size: int) -> bool:
    """Check the One Level Property for every subscription level.

    For each level, the first ``encoding_size`` packets of the merged
    stream must be a permutation of the whole encoding (no duplicates
    before full coverage).  Used by tests and by the Table 5 benchmark.
    """
    for level in range(config.num_layers):
        stream = one_level_stream(level, config, encoding_size,
                                  num_rounds=1 << config.num_layers)
        first = {idx for _, _, idx in islice(stream, encoding_size)}
        if len(first) != encoding_size:
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
