"""Figure 4: reception efficiency vs number of receivers (1 MB file).

"The sender carousels through a two megabyte encoding of a one megabyte
file, while receivers asynchronously attempt to download it" at loss
rates 10% and 50%; codes are Tornado A and interleaved with block sizes
20 and 50 ("Cauchy codes with k = 20 are roughly half as fast as Tornado
codes").  The leftmost point (one receiver) is the average case; the
curves then track the worst receiver as the set grows to 10^4, averaged
over 100 experiments.

Expected shape: Tornado stays flat and high; interleaved degrades with
loss and with receiver count, the more so for smaller blocks.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.codes.tornado.presets import tornado_a
from repro.experiments.report import render_series
from repro.net.loss import BernoulliLoss
from repro.sim.overhead import ThresholdPool
from repro.sim.receivers import (
    ScalingResult,
    build_fountain_pool,
    build_interleaved_pool,
    scaling_experiment,
)
from repro.sim.transfer import SlotWindow
from repro.utils.rng import spawn_rng

PAPER_RECEIVER_COUNTS = [1, 10, 100, 1000, 10000]


@dataclass
class Figure4Result:
    k: int
    loss_rates: List[float]
    receiver_counts: List[int]
    #: curves[loss][code_label] -> list of ScalingResult
    curves: Dict[float, Dict[str, List[ScalingResult]]]


def run(k: int = 1000,
        loss_rates: Sequence[float] = (0.1, 0.5),
        receiver_counts: Optional[Sequence[int]] = None,
        block_sizes: Sequence[int] = (50, 20),
        pool_size: int = 250,
        threshold_trials: int = 150,
        experiments: int = 100,
        seed: int = 0) -> Figure4Result:
    """Run the Figure 4 sweep."""
    counts = list(receiver_counts) if receiver_counts is not None \
        else PAPER_RECEIVER_COUNTS
    code = tornado_a(k, seed=seed)
    threshold_pool = ThresholdPool.for_code(
        code, trials=threshold_trials, rng=spawn_rng(seed, 0x41))
    carousel = SlotWindow(k, k, "tornado-a")
    interleaved = {block_k: SlotWindow(k, block_k, "rs")
                   for block_k in block_sizes}
    curves: Dict[float, Dict[str, List[ScalingResult]]] = {}
    for p in loss_rates:
        loss = BernoulliLoss(p)
        per_code: Dict[str, List[ScalingResult]] = {}
        fpool = build_fountain_pool(threshold_pool, carousel, loss,
                                    pool_size=pool_size,
                                    rng=spawn_rng(seed, int(0x100 + p * 100)))
        per_code["tornado-a"] = scaling_experiment(
            fpool, counts, experiments, spawn_rng(seed, int(0x200 + p * 100)))
        for block_k, window in interleaved.items():
            ipool = build_interleaved_pool(
                window, loss, pool_size=pool_size,
                rng=spawn_rng(seed, int(0x300 + p * 100 + block_k)))
            per_code[f"interleaved k={block_k}"] = scaling_experiment(
                ipool, counts, experiments,
                spawn_rng(seed, int(0x400 + p * 100 + block_k)))
        curves[p] = per_code
    return Figure4Result(k=k, loss_rates=list(loss_rates),
                         receiver_counts=counts, curves=curves)


def render(result: Figure4Result) -> str:
    blocks = []
    for p, per_code in result.curves.items():
        series = []
        for label, points in per_code.items():
            xs = [pt.receivers for pt in points]
            # Leftmost point is the single-receiver average; the rest
            # track the worst receiver, as in the paper's figure.
            ys = [pt.average if pt.receivers == 1 else pt.worst
                  for pt in points]
            series.append((label, xs, ys))
        blocks.append(render_series(
            f"Figure 4: Reception efficiency on a {result.k / 1000:g} MB "
            f"file, p = {p:g}",
            "receivers", "efficiency", series, x_format="{:g}"))
    return "\n\n".join(blocks)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=1000)
    parser.add_argument("--loss-rates", type=float, nargs="*",
                        default=[0.1, 0.5])
    parser.add_argument("--pool-size", type=int, default=250)
    parser.add_argument("--threshold-trials", type=int, default=150)
    parser.add_argument("--experiments", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    result = run(k=args.k, loss_rates=args.loss_rates,
                 pool_size=args.pool_size,
                 threshold_trials=args.threshold_trials,
                 experiments=args.experiments, seed=args.seed)
    print(render(result))


if __name__ == "__main__":
    main()
