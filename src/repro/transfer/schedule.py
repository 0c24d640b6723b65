"""Cross-block transmission schedules.

A block-segmented server must decide, slot by slot, which block's
stream the next packet comes from.  Two pluggable schedules reproduce
the paper's Figure 3 trade-off at file scale:

* :func:`interleaved_slots` — stripe blocks proportionally to their
  size (deficit round-robin).  Every block progresses together, so a
  receiver under random loss fills all blocks in near-lockstep; the
  residual cost is the coupon-collector tail of waiting for the *last*
  block to finish ("the interleaved code requires one packet from every
  block").
* :func:`sequential_slots` — serve one block at a time, a block's worth
  of packets per visit, cycling forever.  A receiver that loses packets
  of block ``b`` waits a whole revolution of the other blocks before
  ``b`` comes around again — the carousel pathology, amplified by the
  number of blocks.

Both are infinite, deterministic generators over block ids, weighted by
the per-block source sizes so the uneven tail block is neither starved
nor over-served.  Each is computed as a stream of int64 slot arrays
(:func:`schedule_chunks`: a sort's worth of the stripe, a revolution of
the sequence); a server slices its draws off those arrays, and the
public iterators above are a flat view over the same chunks.

Within a fixed-rate block, :func:`carousel_order` is the order a
carousel cycles its encoding in.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, Iterator, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.utils.rng import RngLike, spawn_rng

#: most slots a weighted schedule computes per sort (one serve window).
SLOT_CHUNK = 512


#: rng stream label for a carousel's transmission permutation.
_PERMUTATION_STREAM = 0x5EED


def carousel_order(n: int, seed: RngLike) -> np.ndarray:
    """One carousel cycle over ``n`` encoding packets: a seed-derived
    random permutation (paper Section 6: "the server then simply cycled
    through a random permutation of the source and redundant packets").
    Emission ``t`` of a carousel carries ``carousel_order(n, seed)[t %
    n]``."""
    return spawn_rng(seed, _PERMUTATION_STREAM).permutation(n).astype(
        np.int64)


def _check_weights(block_ks: Sequence[int]) -> Sequence[int]:
    if len(block_ks) == 0:
        raise ParameterError("schedule needs at least one block")
    if any(k <= 0 for k in block_ks):
        raise ParameterError("every block weight must be positive")
    return block_ks


def _flat(chunks: Iterator[np.ndarray]) -> Iterator[int]:
    """A chunk iterator's slots one at a time, as ints."""
    for chunk in chunks:
        yield from chunk.tolist()


def _frozen(chunk: np.ndarray) -> np.ndarray:
    """``chunk``, read-only: a consumer holds on to chunks, and the
    sequential schedule hands out one array again and again."""
    chunk.flags.writeable = False
    return chunk


def interleaved_slots(block_ks: Sequence[int]) -> Iterator[int]:
    """Proportional striping: block ``b`` owns a ``k_b / sum(k)`` share —
    :func:`weighted_slots` with every weight 1."""
    return _flat(interleaved_chunks(block_ks))


def weighted_slots(block_ks: Sequence[int],
                   weights: Sequence[float]) -> Iterator[int]:
    """Deficit round-robin with per-block weight multipliers.

    Block ``b`` owns a ``k_b * w_b`` share of the stream: its ``i``-th
    packet is due at virtual time ``(i + 1) / (k_b * w_b)``, and slots
    go out in due-time order (ties broken by block id), so within any
    window every block's emission count tracks its share to within one
    packet.  An adaptive policy chasing lagging blocks hands in weights
    above 1 for the laggards and the schedule concentrates slots there
    while every block keeps making progress; ``weights`` of all ones is
    exactly the proportional stripe.

    The order is a merge of every block's due times, computed a chunk
    of slots at a time with one sort (:func:`weighted_chunks`; this is
    its flat view).  Since the last slot handed out, every block's next
    due time lies within one of its own periods, so the next ``n``
    slots give block ``b`` at most ``(n + blocks) * share_b / total +
    1`` of them; drawing that many candidates per block (plus one for
    rounding) always covers the chunk.  Chunks start at
    :data:`SLOT_CHUNK` / 8 and double up to :data:`SLOT_CHUNK`, so a
    policy that reweights every few dozen emissions sorts little it
    throws away.
    """
    return _flat(weighted_chunks(block_ks, weights))


def sequential_slots(block_ks: Sequence[int]) -> Iterator[int]:
    """One block at a time: ``k_b`` consecutive slots per visit, cycling."""
    return _flat(sequential_chunks(block_ks))


def interleaved_chunks(block_ks: Sequence[int]) -> Iterator[np.ndarray]:
    """:func:`interleaved_slots` a chunk at a time."""
    return weighted_chunks(block_ks, [1] * len(block_ks))


def weighted_chunks(block_ks: Sequence[int],
                    weights: Sequence[float]) -> Iterator[np.ndarray]:
    """:func:`weighted_slots` as the int64 arrays it computes, one sort
    each (read-only)."""
    _check_weights(block_ks)
    if len(weights) != len(block_ks):
        raise ParameterError(
            f"{len(weights)} weights for {len(block_ks)} blocks")
    if any(w <= 0 for w in weights):
        raise ParameterError("every schedule weight must be positive")
    shares = np.array([k * w for k, w in zip(block_ks, weights)],
                      dtype=float)
    blocks = np.arange(shares.size)

    def chunks() -> Iterator[np.ndarray]:
        emitted = np.zeros(shares.size, dtype=np.int64)
        chunk = SLOT_CHUNK // 8
        while True:
            # the candidates of a chunk this size: block b's next
            # reach[b] packets, each ``step`` periods past its last
            reach = ((chunk + shares.size) * shares / shares.sum()
                     ).astype(np.int64) + 2
            block = np.repeat(blocks, reach)
            step = np.arange(block.size) + 1 - np.repeat(
                np.cumsum(reach) - reach, reach)
            share = shares[block]
            # every full-size chunk reuses one candidate layout
            while True:
                due = (emitted[block] + step) / share
                drawn = block[np.lexsort((block, due))[:chunk]]
                emitted += np.bincount(drawn, minlength=shares.size)
                yield _frozen(drawn)
                if chunk < SLOT_CHUNK:
                    break
            chunk = min(2 * chunk, SLOT_CHUNK)

    return chunks()


def sequential_chunks(block_ks: Sequence[int]) -> Iterator[np.ndarray]:
    """:func:`sequential_slots` a revolution at a time: one read-only
    array of every block's visit, handed out again and again."""
    _check_weights(block_ks)
    return repeat(_frozen(np.repeat(np.arange(len(block_ks), dtype=np.int64),
                                    block_ks)))


#: schedule name -> infinite slot-chunk iterator factory.
SCHEDULES: Dict[str, Callable[[Sequence[int]], Iterator[np.ndarray]]] = {
    "interleave": interleaved_chunks,
    "sequential": sequential_chunks,
}


def schedule_chunks(name: str,
                    block_ks: Sequence[int]) -> Iterator[np.ndarray]:
    """A named schedule over the plan's block sizes, as slot arrays."""
    try:
        factory = SCHEDULES[name]
    except KeyError:
        raise ParameterError(
            f"unknown schedule {name!r}; choose from {sorted(SCHEDULES)}")
    return factory(block_ks)


def make_schedule(name: str, block_ks: Sequence[int]) -> Iterator[int]:
    """Instantiate a named schedule over the plan's block sizes."""
    return _flat(schedule_chunks(name, block_ks))
