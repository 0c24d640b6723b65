"""Figure 6: reception efficiency on (synthetic) MBone trace data.

120 receivers replay bursty heterogeneous loss traces (average ~18%
loss; see :mod:`repro.net.traces` for the substitution of synthetic
Gilbert-Elliott traces for the Yajnik/Kurose/Towsley data) while
downloading files of 100 KB - 10 MB from the carousel.  Expected shape:
"Figure 6 looks similar to the plot in Figure 5 with loss probability
p = 0.1" — Tornado flat and high, interleaved decaying with file size.

As in Figure 5, its "tornado-a" points at 128 KB or less are
``tornado_a(k)``'s Reed-Solomon cap alone (``k <= 128``, 1 KB packets).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.codes.tornado.presets import tornado_a
from repro.experiments.report import render_series
from repro.net.traces import TraceSet, synthesize_mbone_traces
from repro.sim.overhead import ThresholdPool
from repro.sim.tracesim import TraceResult, trace_experiment
from repro.utils.rng import spawn_rng

PAPER_SIZES_KB = [100, 250, 500, 1000, 2500, 5000, 10000]


@dataclass
class Figure6Result:
    sizes_kb: List[int]
    average_trace_loss: float
    results: List[TraceResult]


def run(sizes_kb: Optional[Sequence[int]] = None,
        num_receivers: int = 120,
        trace_length: int = 120_000,
        block_sizes: Sequence[int] = (50, 20),
        threshold_trials: int = 80,
        seed: int = 0) -> Figure6Result:
    """Run the trace-driven comparison."""
    sizes = list(sizes_kb) if sizes_kb is not None else PAPER_SIZES_KB
    traces = synthesize_mbone_traces(num_receivers, trace_length,
                                     rng=spawn_rng(seed, 0x61))
    pools: Dict[int, ThresholdPool] = {}

    def pool_factory(k: int) -> ThresholdPool:
        if k not in pools:
            code = tornado_a(k, seed=seed)
            pools[k] = ThresholdPool.for_code(
                code, trials=threshold_trials, rng=spawn_rng(seed, 0x62 + k))
        return pools[k]

    results = trace_experiment(sizes, pool_factory, traces,
                               block_sizes=block_sizes,
                               rng=spawn_rng(seed, 0x63))
    return Figure6Result(sizes_kb=sizes,
                         average_trace_loss=traces.average_loss_rate(),
                         results=results)


def render(result: Figure6Result) -> str:
    by_code: Dict[str, List[TraceResult]] = {}
    for r in result.results:
        by_code.setdefault(r.code_label, []).append(r)
    series = []
    for label, rs in by_code.items():
        rs = sorted(rs, key=lambda r: r.file_size_kb)
        series.append((f"{label}, Avg.", [r.file_size_kb for r in rs],
                       [r.average_efficiency for r in rs]))
    header = (f"Figure 6: Reception efficiency, trace data "
              f"(avg trace loss {result.average_trace_loss:.1%}; "
              f"paper's traces averaged ~18%)")
    return render_series(header, "file size KB", "efficiency", series,
                         x_format="{:g}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="*",
                        default=[100, 250, 500, 1000, 2500])
    parser.add_argument("--receivers", type=int, default=120)
    parser.add_argument("--trace-length", type=int, default=120_000)
    parser.add_argument("--threshold-trials", type=int, default=80)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    result = run(sizes_kb=args.sizes, num_receivers=args.receivers,
                 trace_length=args.trace_length,
                 threshold_trials=args.threshold_trials, seed=args.seed)
    print(render(result))


if __name__ == "__main__":
    main()
