"""Token-bucket rate pacing for datagram senders.

A fountain server that blasts datagrams as fast as the CPU allows will
overflow loopback socket buffers long before it saturates a real link;
the paper's servers transmit at a configured per-layer *rate*.
:class:`TokenBucket` is the standard shaper: tokens accrue at ``rate``
per second up to ``capacity``; each packet spends one token, and a
sender sleeps whenever the bucket runs dry — allowing short bursts up
to the bucket depth while holding the long-run average at ``rate``.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import ParameterError

__all__ = ["TokenBucket"]


class TokenBucket:
    """A token-bucket pacer: ``rate`` tokens/second, bursts to ``capacity``.

    Parameters
    ----------
    rate:
        Long-run tokens (packets) per second; must be positive.
    capacity:
        Bucket depth — the largest burst that can go out back-to-back.
        Defaults to 50 ms worth of tokens (at least 1).
    clock:
        Monotonic time source, injectable for deterministic tests.
    """

    def __init__(self, rate: float, capacity: float = None,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ParameterError(f"pacing rate must be positive, got {rate}")
        if capacity is None:
            capacity = max(1.0, rate / 20.0)
        if capacity <= 0:
            raise ParameterError("bucket capacity must be positive")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._clock = clock
        self._tokens = self.capacity
        self._last = clock()

    @property
    def tokens(self) -> float:
        """Tokens currently available (may be negative: paced debt)."""
        self._refill()
        return self._tokens

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.capacity,
                           self._tokens + (now - self._last) * self.rate)
        self._last = now

    def set_rate(self, rate: float) -> None:
        """Retarget the long-run rate, live (the adaptive-pacing lever).

        The balance is settled at the old rate first, so tokens already
        earned are kept and any debt keeps its old clearing schedule;
        only budget accruing *after* the change moves at the new rate.
        Capacity grows to at least 50 ms of the new rate (it never
        shrinks, so a rate step down cannot strand earned burst room).
        """
        if rate <= 0:
            raise ParameterError(f"pacing rate must be positive, got {rate}")
        self._refill()
        self.rate = float(rate)
        self.capacity = max(self.capacity, max(1.0, rate / 20.0))

    def reserve(self, tokens: float = 1.0) -> float:
        """Spend ``tokens`` now; return the seconds to sleep before sending.

        The balance may go negative (the caller owes time); the return
        value is how long the debt takes to clear, which keeps pacing
        smooth without busy-waiting.
        """
        self._refill()
        self._tokens -= tokens
        if self._tokens >= 0:
            return 0.0
        return -self._tokens / self.rate
