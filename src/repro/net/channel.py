"""A lossy best-effort channel applying a loss model to packet streams."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, TypeVar

import numpy as np

from repro.errors import ParameterError
from repro.net.loss import LossModel
from repro.utils.rng import RngLike, ensure_rng

#: whatever crosses a channel: it reads verdicts, never packets.
Packet = TypeVar("Packet")


class LossyChannel:
    """Applies a :class:`~repro.net.loss.LossModel` to whatever crosses it.

    The channel owns its RNG and its process state, so two channels
    built over one model run independent loss processes — one per
    receiver, as in all of the paper's experiments.

    Verdicts come from one buffered stream: the model is always asked
    for :attr:`_CHUNK` slots at a time and every consumer
    (:meth:`lost`, :meth:`transmit`, :meth:`delivery_mask`) reads the
    same buffer, so any partition of ``n`` draws yields the same ``n``
    verdicts.  Each chunk continues the process where the last one left
    it (:meth:`~repro.net.loss.LossModel.draw`), so a Gilbert-Elliott
    chain keeps its bursts across chunks.

    A sender that drew a window of verdicts and stopped part-way hands
    the unused tail back with :meth:`unwind`: the buffer keeps every
    verdict of the last draw, so the next draw reads them again and the
    stream goes on as if only the kept part had been drawn.
    """

    _CHUNK = 512

    def __init__(self, loss_model: LossModel, rng: RngLike = None):
        self.loss_model = loss_model
        self.rng = ensure_rng(rng)
        self.sent = 0
        self.delivered = 0
        self._verdicts = np.empty(0, dtype=bool)   # True = lost
        self._pos = 0
        #: the loss process's hidden state after the last chunk drawn.
        self._state: Any = None

    def _take(self, count: int) -> np.ndarray:
        """The next ``count`` verdicts (True = lost); counts them sent.

        When the buffer runs short the model is asked for whole chunks
        and the verdicts before this draw are dropped — the ones it
        hands out stay, so :meth:`unwind` can step back over all of it.
        """
        short = count - (len(self._verdicts) - self._pos)
        if short > 0:
            chunks = [self._verdicts[self._pos:]]
            for _ in range(-(-short // self._CHUNK)):
                verdicts, self._state = self.loss_model.draw(
                    self._CHUNK, self.rng, self._state)
                chunks.append(verdicts)
            self._verdicts = np.concatenate(chunks)
            self._pos = 0
        verdicts = self._verdicts[self._pos:self._pos + count]
        self._pos += count
        self.sent += count
        self.delivered += count - int(np.count_nonzero(verdicts))
        return verdicts

    def lost(self) -> bool:
        """Cross one packet; True when the channel drops it."""
        return bool(self._take(1)[0])

    def transmit(self, packets: Iterable[Packet]) -> Iterator[Packet]:
        """Yield the packets that survive the channel, in order."""
        for packet in packets:
            if not self.lost():
                yield packet

    def delivery_mask(self, count: int) -> np.ndarray:
        """Vectorised fast path: survival mask for the next ``count`` slots."""
        return ~self._take(count)

    def unwind(self, count: int) -> None:
        """Take back the last ``count`` verdicts handed out.

        ``sent`` and ``delivered`` return to what they were before those
        slots crossed, and the next draw reads the same verdicts again —
        the model's chunks and the RNG stream are untouched.  At least
        the whole of the last draw can be taken back; asking for more
        than the buffer holds raises
        :class:`~repro.errors.ParameterError` and moves nothing.
        """
        if not 0 <= count <= self._pos:
            raise ParameterError(
                f"cannot unwind {count} verdicts: {self._pos} are "
                "buffered behind the stream position")
        self._pos -= count
        back = self._verdicts[self._pos:self._pos + count]
        self.sent -= count
        self.delivered -= count - int(np.count_nonzero(back))

    @property
    def observed_loss_rate(self) -> float:
        """Empirical loss rate over everything transmitted so far."""
        if self.sent == 0:
            return 0.0
        return 1.0 - self.delivered / self.sent
