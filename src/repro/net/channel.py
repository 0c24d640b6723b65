"""A lossy best-effort channel applying a loss model to packet streams."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.fountain.packets import EncodingPacket
from repro.net.loss import LossModel
from repro.utils.rng import RngLike, ensure_rng


class LossyChannel:
    """Applies a :class:`~repro.net.loss.LossModel` to whatever crosses it.

    The channel owns its RNG so that two channels built from the same
    model but different seeds produce independent loss processes — one
    per receiver, as in all of the paper's experiments.

    Verdicts come from one buffered stream: the model is always asked
    for :attr:`_CHUNK` slots at a time and every consumer
    (:meth:`lost`, :meth:`transmit`, :meth:`delivery_mask`) reads the
    same buffer, so any partition of ``n`` draws yields the same ``n``
    verdicts.  That also keeps stateful models honest: Gilbert-Elliott
    re-draws its hidden state from stationarity on every ``losses``
    call, so asking it for one packet at a time would flatten the
    bursts back into Bernoulli, while mean bursts are far shorter than
    a chunk.
    """

    _CHUNK = 512

    def __init__(self, loss_model: LossModel, rng: RngLike = None):
        self.loss_model = loss_model
        self.rng = ensure_rng(rng)
        self.sent = 0
        self.delivered = 0
        self._verdicts = np.empty(0, dtype=bool)   # True = lost
        self._pos = 0

    def _refill(self) -> None:
        self._verdicts = self.loss_model.losses(self._CHUNK, self.rng)
        self._pos = 0

    def lost(self) -> bool:
        """Cross one packet; True when the channel drops it."""
        if self._pos >= len(self._verdicts):
            self._refill()
        verdict = bool(self._verdicts[self._pos])
        self._pos += 1
        self.sent += 1
        self.delivered += not verdict
        return verdict

    def transmit(self, packets: Iterable[EncodingPacket]
                 ) -> Iterator[EncodingPacket]:
        """Yield the packets that survive the channel, in order."""
        for packet in packets:
            if not self.lost():
                yield packet

    def delivery_mask(self, count: int) -> np.ndarray:
        """Vectorised fast path: survival mask for the next ``count`` slots."""
        mask = np.empty(count, dtype=bool)
        filled = 0
        while filled < count:
            if self._pos >= len(self._verdicts):
                self._refill()
            take = min(count - filled, len(self._verdicts) - self._pos)
            np.logical_not(self._verdicts[self._pos:self._pos + take],
                           out=mask[filled:filled + take])
            self._pos += take
            filled += take
        self.sent += count
        self.delivered += int(mask.sum())
        return mask

    @property
    def observed_loss_rate(self) -> float:
        """Empirical loss rate over everything transmitted so far."""
        if self.sent == 0:
            return 0.0
        return 1.0 - self.delivered / self.sent
