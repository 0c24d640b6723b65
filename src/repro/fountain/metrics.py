"""Reception-efficiency accounting (paper Sections 6 and 7.3).

The paper separates a receiver's efficiency into two factors::

    eta   =  k / total packets received prior to reconstruction
    eta_c =  k / distinct packets received prior to reconstruction
    eta_d =  distinct received / total received
    eta   =  eta_c * eta_d

``eta_c`` (*coding efficiency*) captures the loss due to the code's
reception overhead; ``eta_d`` (*distinctness efficiency*) the loss due to
duplicate packets (carousel wrap-around, layer switching).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ParameterError


@dataclass(frozen=True)
class ReceptionStats:
    """Packet counts observed by one receiver up to reconstruction."""

    source_packets: int
    distinct_received: int
    total_received: int

    def __post_init__(self) -> None:
        if self.source_packets <= 0:
            raise ParameterError("source_packets must be positive")
        if self.distinct_received > self.total_received:
            raise ParameterError(
                "distinct packets cannot exceed total packets")
        if self.total_received > 0 and self.distinct_received == 0:
            raise ParameterError(
                "a receiver with receptions has at least one distinct "
                "packet (the first one)")

    @classmethod
    def of_decoder(cls, k: int, decoder: Any) -> "ReceptionStats":
        """The counters of an
        :class:`~repro.codes.registry.IncrementalDecoder` fed through
        :func:`~repro.codes.registry.feed`, which stops at completion:
        every arrival it saw was received prior to reconstruction."""
        distinct = decoder.packets_added
        return cls(k, distinct, distinct + decoder.duplicates_seen)

    @property
    def efficiency(self) -> float:
        """Total reception efficiency eta = k / total received."""
        if self.total_received == 0:
            return 0.0
        return self.source_packets / self.total_received

    @property
    def coding_efficiency(self) -> float:
        """eta_c = k / distinct received."""
        if self.distinct_received == 0:
            return 0.0
        return self.source_packets / self.distinct_received

    @property
    def distinctness_efficiency(self) -> float:
        """eta_d = distinct / total received."""
        if self.total_received == 0:
            return 1.0
        return self.distinct_received / self.total_received

    @property
    def reception_overhead(self) -> float:
        """epsilon such that (1 + epsilon) * k packets were received."""
        return self.total_received / self.source_packets - 1.0

    @property
    def duplicates(self) -> int:
        """Packets received more than once."""
        return self.total_received - self.distinct_received

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"eta={self.efficiency:.3f} "
                f"(coding {self.coding_efficiency:.3f} x "
                f"distinctness {self.distinctness_efficiency:.3f})")
