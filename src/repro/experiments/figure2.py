"""Figure 2: reception-overhead variation of Tornado A and B.

"We show the percentage of 10,000 trials in which the receiver could
not reconstruct the source data for specific percentage overheads."
The paper's statistics are :data:`PAPER_STATS`; the claims in
:mod:`repro.experiments.claims` hold the measured ones against them
(Tornado A's mean and max are a known gap).  Default trial counts are
reduced; ``--trials 10000`` reproduces the paper's scale.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.codes.tornado.presets import TORNADO_PRESETS
from repro.experiments.report import render_series
from repro.sim.overhead import (
    overhead_statistics,
    percent_unfinished_curve,
    sample_decode_thresholds,
)
from repro.utils.rng import spawn_rng
from repro.utils.stats import SummaryStats

#: Paper-reported overhead statistics (Section 5.2).
PAPER_STATS = {
    "tornado-a": {"mean": 0.0548, "max": 0.0850, "std": 0.0052},
    "tornado-b": {"mean": 0.0306, "max": 0.0550, "std": 0.0031},
}


@dataclass
class Figure2Result:
    k: int
    stats: Dict[str, SummaryStats]
    curves: Dict[str, Tuple[np.ndarray, np.ndarray]]


def run(k: int = 2000, trials: int = 400, seed: int = 0,
        codes: Optional[Tuple[str, ...]] = None) -> Figure2Result:
    """Sample overhead distributions for the preset codes."""
    names = codes if codes is not None else tuple(TORNADO_PRESETS)
    stats: Dict[str, SummaryStats] = {}
    curves = {}
    for i, name in enumerate(names):
        code = TORNADO_PRESETS[name](k, seed=seed)
        thresholds = sample_decode_thresholds(
            code, trials, spawn_rng(seed, 0xF16 + i))
        stats[name] = overhead_statistics(thresholds, k)
        curves[name] = percent_unfinished_curve(thresholds, k)
    return Figure2Result(k=k, stats=stats, curves=curves)


def render(result: Figure2Result) -> str:
    lines = []
    for name, st in result.stats.items():
        paper = PAPER_STATS.get(name, {})
        lines.append(
            f"{name} (k={result.k}): measured mean={st.mean:.4f} "
            f"std={st.std:.4f} max={st.maximum:.4f}   "
            f"[paper: mean={paper.get('mean', float('nan')):.4f} "
            f"std={paper.get('std', float('nan')):.4f} "
            f"max={paper.get('max', float('nan')):.4f}]")
    series = [(name, grid, pct)
              for name, (grid, pct) in result.curves.items()]
    lines.append(render_series(
        "Figure 2: Percent unfinished vs length overhead",
        "overhead", "% unfinished", series,
        x_format="{:.3f}", y_format="{:.1f}"))
    return "\n".join(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=2000,
                        help="source packets (paper: tens of thousands)")
    parser.add_argument("--trials", type=int, default=400,
                        help="runs per code (paper: 10000)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(render(run(k=args.k, trials=args.trials, seed=args.seed)))


if __name__ == "__main__":
    main()
