"""Layer organisation for receiver-driven layered multicast.

Section 7.1.1: the server organises data into ``g`` layers, each a
multicast group, with geometrically increasing rates: "Letting B_i denote
the ratio of the rate used at layer i to the rate at the base layer 0,
our protocol uses geometrically increasing rates: B_i = 2^(i-1)".  (So
layers 0 and 1 both run at the base rate, and Table 5's block size is
``sum B_i = 2^(g-1)``.)

A receiver subscribes to *levels*: level i means layers 0..i, hence a
cumulative bandwidth of ``2^i`` base rates for i >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ParameterError


@dataclass(frozen=True)
class LayerConfig:
    """Static description of the layer set.

    Parameters
    ----------
    num_layers:
        ``g`` — number of layers / multicast groups (>= 1).  Rates are
        packets per block per round, in the unit the paper's experiments
        use: layer 0 sends one.
    """

    num_layers: int

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ParameterError("need at least one layer")

    def layer_rate(self, layer: int) -> int:
        """Packets per round on ``layer`` (B_i = 2^(i-1), B_0 = 1)."""
        self._check_layer(layer)
        return 1 if layer == 0 else 1 << (layer - 1)

    def level_rate(self, level: int) -> int:
        """Cumulative packets per round at subscription ``level``:
        ``2^level`` for level >= 1 and 1 for level 0."""
        self._check_layer(level)
        return sum(self.layer_rate(i) for i in range(level + 1))

    @property
    def block_size(self) -> int:
        """Packets per full round across all layers: sum of B_i = 2^(g-1)."""
        return self.level_rate(self.num_layers - 1)

    @property
    def max_level(self) -> int:
        return self.num_layers - 1

    def rates(self) -> List[int]:
        """Per-layer rates, layer 0 first."""
        return [self.layer_rate(i) for i in range(self.num_layers)]

    def _check_layer(self, layer: int) -> None:
        if not 0 <= layer < self.num_layers:
            raise ParameterError(
                f"layer {layer} outside [0, {self.num_layers})")
