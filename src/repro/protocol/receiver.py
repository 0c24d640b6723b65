"""Layered receiver: subscription control plus incremental decoding.

One receiver owns a bottleneck capacity (packets per round its access
path can carry), an ambient loss process, a
:class:`~repro.protocol.congestion.SubscriptionController` and a
structural :class:`~repro.codes.registry.IncrementalDecoder` — over
*any* registered code — whose counters are this receiver's reception
statistics.  Per round it:

1. receives the packets of its subscribed layers, minus congestion drops
   (arrivals beyond capacity) and ambient losses;
2. feeds survivors to the decoder (:func:`~repro.codes.registry.feed`),
   which stops on the completing packet;
3. reacts to burst ends and synchronization points by adjusting its
   subscription level per the paper's join/drop rules.
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from repro.codes.registry import feed, incremental_decoder
from repro.fountain.metrics import ReceptionStats
from repro.net.channel import LossyChannel
from repro.net.loss import LossModel
from repro.protocol.congestion import CongestionPolicy, SubscriptionController
from repro.protocol.layering import LayerConfig
from repro.utils.rng import RngLike, ensure_rng


class LayeredReceiver:
    """A single receiver in the layered-multicast session simulation."""

    def __init__(self, code: Any, config: LayerConfig,
                 policy: CongestionPolicy, capacity_per_round: int,
                 ambient_loss: LossModel, rng: RngLike = None,
                 start_level: int = 0):
        self.code = code
        self.config = config
        self.policy = policy
        self.capacity = int(capacity_per_round)
        self.rng = ensure_rng(rng)
        self.ambient = LossyChannel(ambient_loss, self.rng)
        self.controller = SubscriptionController(
            policy=policy, config=config, level=start_level)
        #: the one memory of what arrived (structural: ids only).
        self.decoder = incremental_decoder(code)
        self.congestion_drops = 0
        self.expected_total = 0
        self.completed_at_round: Optional[int] = None
        self.level_history: List[int] = [start_level]

    @property
    def level(self) -> int:
        return self.controller.level

    @property
    def is_complete(self) -> bool:
        return self.decoder.is_complete

    def process_round(self, round_index: int,
                      per_layer_indices: List[np.ndarray],
                      was_burst: bool) -> None:
        """Consume one walk round at the current subscription level."""
        if self.is_complete:
            return
        arriving = np.concatenate(per_layer_indices[:self.level + 1])
        expected = arriving.size
        # Bottleneck: during a burst the same round-time carries twice
        # the packets, so the fixed per-round capacity now bites —
        # exactly how the burst probes for spare headroom.
        admitted = arriving
        if expected > self.capacity:
            keep = self.rng.permutation(expected)[:self.capacity]
            admitted = arriving[np.sort(keep)]
            self.congestion_drops += expected - self.capacity
        # Ambient (wireless/queue) loss on the survivors.
        survive = self.ambient.delivery_mask(admitted.size)
        delivered = admitted[survive]
        # The receiver disconnects on the completing packet — only
        # packets received *prior to reconstruction* count towards the
        # efficiency metrics (Section 7.3).
        used = feed(self.decoder, delivered)
        if self.is_complete:
            self.completed_at_round = round_index
            # Pro-rate the round's expected packets by the fraction of
            # deliveries consumed before disconnecting, so the observed
            # loss rate is not distorted by the cut-off round.
            frac = used / delivered.size
            self.expected_total += int(round(expected * frac))
            return
        self.expected_total += expected
        # Congestion-control reactions.
        self.controller.observe_round(expected, int(delivered.size),
                                      was_burst)
        if was_burst:
            self.controller.end_burst()
        if self.policy.is_sp_round(self.level, round_index, self.config):
            new_level = self.controller.at_sp()
            if new_level != self.level_history[-1]:
                self.level_history.append(new_level)

    # -- results -----------------------------------------------------------------

    def observed_loss_rate(self) -> float:
        """Loss the receiver experienced (congestion + ambient)."""
        if self.expected_total == 0:
            return 0.0
        return 1.0 - self.stats().total_received / self.expected_total

    def stats(self) -> ReceptionStats:
        return ReceptionStats.of_decoder(self.code.k, self.decoder)
