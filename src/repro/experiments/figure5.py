"""Figure 5: reception efficiency as file size grows (500 receivers).

The interleaved approach needs super-linearly many packets as the file
grows (coupon collection across ever more blocks), so both its average
and its minimum efficiency fall with file size; Tornado's efficiency is
size-independent.  Loss rates 10% and 50%, file sizes 100 KB - 10 MB.

A file of at most 128 KB (1 KB packets) has ``k <= 128``, the cascade's
cap threshold, so ``tornado_a(k)`` is only its Reed-Solomon cap there:
those "tornado-a" points measure an MDS code and do not show Tornado
flat in file size.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codes.tornado.presets import tornado_a
from repro.experiments.report import render_series
from repro.net.loss import BernoulliLoss
from repro.sim.overhead import ThresholdPool
from repro.sim.receivers import build_fountain_pool, build_interleaved_pool
from repro.sim.transfer import SlotWindow
from repro.utils.rng import spawn_rng

PAPER_SIZES_KB = [100, 250, 500, 1000, 2500, 5000, 10000]


@dataclass
class Figure5Result:
    sizes_kb: List[int]
    loss_rates: List[float]
    num_receivers: int
    #: values[loss][code_label] -> (avg per size, min per size)
    values: Dict[float, Dict[str, Tuple[List[float], List[float]]]]


def run(sizes_kb: Optional[Sequence[int]] = None,
        loss_rates: Sequence[float] = (0.1, 0.5),
        num_receivers: int = 500,
        block_sizes: Sequence[int] = (50, 20),
        pool_size: int = 200,
        threshold_trials: int = 100,
        experiments: int = 40,
        seed: int = 0) -> Figure5Result:
    """Run the Figure 5 sweep (defaults scaled down; flags scale up)."""
    sizes = list(sizes_kb) if sizes_kb is not None else PAPER_SIZES_KB
    values: Dict[float, Dict[str, Tuple[List[float], List[float]]]] = {
        p: {} for p in loss_rates}

    def record(p: float, label: str, pool, stream: int) -> None:
        """Append ``pool``'s average and worst case to ``label``'s series
        (the worst case draws from rng stream ``stream + 0x1000``)."""
        avgs, worsts = values[p].setdefault(label, ([], []))
        avgs.append(pool.average_over_receivers(
            num_receivers, experiments, spawn_rng(seed, stream)))
        worsts.append(pool.worst_case(
            num_receivers, experiments, spawn_rng(seed, stream + 0x1000)))

    for si, size in enumerate(sizes):
        k = int(size)
        code = tornado_a(k, seed=seed)
        tpool = ThresholdPool.for_code(
            code, trials=threshold_trials, rng=spawn_rng(seed, 0x51 + si))
        carousel = SlotWindow(k, k, "tornado-a")
        interleaved = {block_k: SlotWindow(k, block_k, "rs")
                       for block_k in block_sizes}
        for p in loss_rates:
            loss = BernoulliLoss(p)
            fpool = build_fountain_pool(
                tpool, carousel, loss, pool_size=pool_size,
                rng=spawn_rng(seed, int(0x1000 + si * 10 + p * 100)))
            record(p, "tornado-a", fpool, int(0x2000 + si * 10 + p * 100))
            for block_k, window in interleaved.items():
                ipool = build_interleaved_pool(
                    window, loss, pool_size=pool_size,
                    rng=spawn_rng(seed,
                                  int(0x4000 + si * 10 + p * 100 + block_k)))
                record(p, f"interleaved k={block_k}", ipool,
                       int(0x5000 + si * 10 + p * 100 + block_k))
    return Figure5Result(sizes_kb=sizes, loss_rates=list(loss_rates),
                         num_receivers=num_receivers, values=values)


def render(result: Figure5Result) -> str:
    blocks = []
    for p, per_code in result.values.items():
        series = []
        for label, (avgs, mins) in per_code.items():
            series.append((f"{label}, Avg.", result.sizes_kb, avgs))
            series.append((f"{label}, Min.", result.sizes_kb, mins))
        blocks.append(render_series(
            f"Figure 5: Reception efficiency with {result.num_receivers} "
            f"receivers, p = {p:g}",
            "file size KB", "efficiency", series, x_format="{:g}"))
    return "\n\n".join(blocks)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="*",
                        default=[100, 250, 500, 1000, 2500],
                        help="file sizes in KB (paper grid reaches 10000)")
    parser.add_argument("--loss-rates", type=float, nargs="*",
                        default=[0.1, 0.5])
    parser.add_argument("--receivers", type=int, default=500)
    parser.add_argument("--pool-size", type=int, default=200)
    parser.add_argument("--threshold-trials", type=int, default=100)
    parser.add_argument("--experiments", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    result = run(sizes_kb=args.sizes, loss_rates=args.loss_rates,
                 num_receivers=args.receivers, pool_size=args.pool_size,
                 threshold_trials=args.threshold_trials,
                 experiments=args.experiments, seed=args.seed)
    print(render(result))


if __name__ == "__main__":
    main()
