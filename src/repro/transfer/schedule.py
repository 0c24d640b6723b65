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
nor over-served.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, Sequence

from repro.errors import ParameterError


def _check_weights(block_ks: Sequence[int]) -> Sequence[int]:
    if len(block_ks) == 0:
        raise ParameterError("schedule needs at least one block")
    if any(k <= 0 for k in block_ks):
        raise ParameterError("every block weight must be positive")
    return block_ks


def interleaved_slots(block_ks: Sequence[int]) -> Iterator[int]:
    """Proportional striping: block ``b`` owns a ``k_b / sum(k)`` share —
    :func:`weighted_slots` with every weight 1."""
    return weighted_slots(block_ks, [1] * len(block_ks))


def weighted_slots(block_ks: Sequence[int],
                   weights: Sequence[float]) -> Iterator[int]:
    """Deficit round-robin with per-block weight multipliers.

    Block ``b`` owns a ``k_b * w_b`` share of the stream, via an event
    heap: its ``i``-th packet is due at virtual time ``(i + 1) / (k_b *
    w_b)``; slots pop in due-time order (ties broken by block id), so
    within any window every block's emission count tracks its share to
    within one packet.  An adaptive policy chasing lagging blocks hands
    in weights above 1 for the laggards and the schedule concentrates
    slots there while every block keeps making progress; ``weights`` of
    all ones is exactly the proportional stripe.
    """
    _check_weights(block_ks)
    if len(weights) != len(block_ks):
        raise ParameterError(
            f"{len(weights)} weights for {len(block_ks)} blocks")
    if any(w <= 0 for w in weights):
        raise ParameterError("every schedule weight must be positive")
    shares = [k * w for k, w in zip(block_ks, weights)]

    def slots() -> Iterator[int]:
        emitted = [0] * len(shares)
        heap = [(1.0 / s, b) for b, s in enumerate(shares)]
        heapq.heapify(heap)
        while True:
            _, b = heapq.heappop(heap)
            yield b
            emitted[b] += 1
            heapq.heappush(heap, ((emitted[b] + 1) / shares[b], b))

    return slots()


def sequential_slots(block_ks: Sequence[int]) -> Iterator[int]:
    """One block at a time: ``k_b`` consecutive slots per visit, cycling."""
    _check_weights(block_ks)

    def slots() -> Iterator[int]:
        while True:
            for b, k in enumerate(block_ks):
                for _ in range(k):
                    yield b

    return slots()


#: schedule name -> infinite block-id generator factory.
SCHEDULES: Dict[str, object] = {
    "interleave": interleaved_slots,
    "sequential": sequential_slots,
}


def make_schedule(name: str, block_ks: Sequence[int]) -> Iterator[int]:
    """Instantiate a named schedule over the plan's block sizes."""
    try:
        factory = SCHEDULES[name]
    except KeyError:
        raise ParameterError(
            f"unknown schedule {name!r}; choose from {sorted(SCHEDULES)}")
    return factory(block_ks)
