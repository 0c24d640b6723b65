"""Multicast groups with per-receiver lossy membership.

Models exactly what the layered protocol needs: a server transmits a
packet to a *group*; every currently subscribed receiver independently
either receives it or loses it according to its own channel.  Join and
leave are instantaneous (IGMP latency is irrelevant to the efficiency
metrics the paper reports and is noted as a non-goal in DESIGN.md).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.errors import ParameterError
from repro.fountain.packets import EncodingPacket
from repro.net.channel import LossyChannel

#: Receivers are identified by opaque integer ids.
ReceiverId = int
Delivery = Callable[[ReceiverId, EncodingPacket], None]


class MulticastGroup:
    """One multicast group: a subscriber set."""

    def __init__(self, group_id: int):
        self.group_id = group_id
        self.subscribers: Set[ReceiverId] = set()

    def join(self, receiver: ReceiverId) -> None:
        self.subscribers.add(receiver)

    def leave(self, receiver: ReceiverId) -> None:
        self.subscribers.discard(receiver)

    def __contains__(self, receiver: ReceiverId) -> bool:
        return receiver in self.subscribers


class MulticastNetwork:
    """A set of groups plus per-receiver loss channels.

    Parameters
    ----------
    num_groups:
        Groups (layers) available; ids ``0 .. num_groups-1``.
    """

    def __init__(self, num_groups: int):
        if num_groups <= 0:
            raise ParameterError("need at least one group")
        self.groups: Dict[int, MulticastGroup] = {
            g: MulticastGroup(g) for g in range(num_groups)}
        self.channels: Dict[ReceiverId, LossyChannel] = {}

    def attach_receiver(self, receiver: ReceiverId,
                        channel: LossyChannel) -> None:
        """Register a receiver with its private loss channel."""
        self.channels[receiver] = channel

    def join(self, receiver: ReceiverId, group: int) -> None:
        if receiver not in self.channels:
            raise ParameterError(f"receiver {receiver} not attached")
        self.groups[group].join(receiver)

    def leave(self, receiver: ReceiverId, group: int) -> None:
        self.groups[group].leave(receiver)

    def subscribed_groups(self, receiver: ReceiverId) -> List[int]:
        return [g for g, grp in self.groups.items() if receiver in grp]

    def transmit(self, group: int, packet: EncodingPacket,
                 deliver: Delivery) -> None:
        """Send ``packet`` to ``group``; call ``deliver`` per survivor."""
        for receiver in self.groups[group].subscribers:
            if not self.channels[receiver].lost():
                deliver(receiver, packet)
