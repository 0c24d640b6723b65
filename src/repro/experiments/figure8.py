"""Figure 8: prototype efficiencies vs packet loss (simulation).

Reproduces the two experimental panels of Section 7.3:

* **single layer**: a fixed-rate multicast group; receivers differ only
  in ambient loss.  Expected: distinctness efficiency ~100% below 50%
  loss (the One Level Property), declining beyond as the carousel wraps;
  total efficiency stays above ~70% even near 70% loss.
* **4 layers**: receivers with heterogeneous bottleneck capacities and
  ambient loss run the SP/burst congestion control.  Expected:
  distinctness efficiency degrades from ~13% loss upward (level switches
  cause duplicates), with most runs above ~80% total efficiency.

The paper's 2 MB QuickTime clip split into 8264 500-byte packets is the
``--paper-scale`` configuration; the default shrinks k for quick runs.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.codes.tornado.presets import tornado_a
from repro.experiments.report import Table, render_table
from repro.protocol.session import (
    SessionResult,
    run_session,
    run_single_layer_session,
)
from repro.utils.rng import ensure_rng, spawn_rng


@dataclass
class Figure8Result:
    single_layer: List[SessionResult]
    layered: List[SessionResult]
    k: int


def run(k: int = 2066,
        single_loss_rates: Sequence[float] = tuple(np.linspace(0.02, 0.7, 12)),
        layered_receivers: int = 24,
        seed: int = 0) -> Figure8Result:
    """Run both Figure 8 experiments.

    ``k=2066`` mimics the paper's 2 MB / 500 B setup at quarter scale by
    default (8264/4); pass 4132 with 500-byte framing in mind for full
    paper scale (payload bytes never enter these structural sims).
    """
    code = tornado_a(k, seed=seed)
    single = run_single_layer_session(code, list(single_loss_rates),
                                      seed=spawn_rng(seed, 0x81))
    # Heterogeneous receiver population for the layered panel: capacities
    # from below one layer to beyond the top level, ambient loss 0-35%.
    gen = ensure_rng(spawn_rng(seed, 0x82))
    ambient = gen.uniform(0.0, 0.35, size=layered_receivers)
    capacity = gen.uniform(1.2, 10.0, size=layered_receivers)
    layered = run_session(code, ambient.tolist(), capacity.tolist(),
                          seed=spawn_rng(seed, 0x83))
    return Figure8Result(single_layer=single, layered=layered, k=k)


def _panel(results: List[SessionResult], title: str) -> Table:
    table = Table(
        title=title,
        header=["loss %", "eta_d %", "eta_c %", "eta %", "completed"],
    )
    for r in sorted(results, key=lambda r: r.observed_loss):
        table.add_row(f"{r.observed_loss * 100:.1f}",
                      f"{r.stats.distinctness_efficiency * 100:.1f}",
                      f"{r.stats.coding_efficiency * 100:.1f}",
                      f"{r.stats.efficiency * 100:.1f}",
                      "yes" if r.completed else "no")
    return table


def render(result: Figure8Result) -> str:
    single = _panel(result.single_layer,
                    f"Figure 8 (single layer, k={result.k}): efficiencies "
                    "vs packet loss")
    layered = _panel(result.layered,
                     f"Figure 8 (4 layers, k={result.k}): efficiencies vs "
                     "packet loss")
    note = ("Paper shape: single-layer eta_d ~100% below 50% loss; "
            "4-layer eta_d degrades from ~13% loss (level switching); "
            "most runs above ~80% total efficiency at <=30% loss.")
    return "\n\n".join([render_table(single), render_table(layered), note])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=2066)
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the paper's 8264-packet encoding (k=4132)")
    parser.add_argument("--layered-receivers", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    k = 4132 if args.paper_scale else args.k
    result = run(k=k, layered_receivers=args.layered_receivers,
                 seed=args.seed)
    print(render(result))


if __name__ == "__main__":
    main()
