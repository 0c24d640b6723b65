"""Table 1: qualitative properties of Tornado vs Reed-Solomon codes.

The paper's Table 1 is analytic (cost formulas and the basic operation);
this runner verifies each claim empirically against the implementations:

* reception overhead: RS decodes from exactly k packets, Tornado needs
  (1+eps)k with eps > 0;
* encode/decode scaling: RS grows quadratically with size (k*l field
  operations), Tornado linearly ((k+l) ln(1/eps) XORs);
* basic operation: XOR vs field arithmetic (checked by construction).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.codes.reed_solomon import cauchy_code
from repro.codes.tornado.presets import tornado_a
from repro.experiments.report import Table, render_table
from repro.sim.overhead import sample_decode_thresholds
from repro.sim.timemodel import time_rs_encode, time_tornado_encode
from repro.utils.rng import ensure_rng


@dataclass
class Table1Result:
    rs_overhead: float
    tornado_overhead: float
    rs_time_ratio: float
    tornado_time_ratio: float
    size_ratio: float


def run(k_small: int = 250, k_large: int = 1000, payload: int = 256,
        trials: int = 20, seed: int = 0) -> Table1Result:
    """Measure the Table 1 claims at two sizes."""
    rng = ensure_rng(seed)
    # Reception overhead.
    rs = cauchy_code(k_small)
    rs_thresholds = sample_decode_thresholds(rs, trials, rng)
    tornado = tornado_a(k_large, seed=seed)
    tor_thresholds = sample_decode_thresholds(tornado, trials, rng)
    # Encoding time scaling between the two sizes, best of three each.
    rs_small, rs_large = (min(time_rs_encode(k, payload) for _ in range(3))
                          for k in (k_small, k_large))
    tor_small, tor_large = (
        min(time_tornado_encode(code, payload) for _ in range(3))
        for code in (tornado_a(k_small, seed=seed), tornado))
    return Table1Result(
        rs_overhead=float(rs_thresholds.mean() / k_small - 1.0),
        tornado_overhead=float(tor_thresholds.mean() / k_large - 1.0),
        rs_time_ratio=rs_large / rs_small,
        tornado_time_ratio=tor_large / max(tor_small, 1e-9),
        size_ratio=k_large / k_small,
    )


def build_table(result: Table1Result) -> Table:
    table = Table(
        title="Table 1: Properties of Tornado vs Reed-Solomon codes",
        header=["Property", "Tornado (paper)", "Tornado (measured)",
                "Reed-Solomon (paper)", "Reed-Solomon (measured)"],
        footnote=("Time ratio = encode time at 4x the size / encode time "
                  "at 1x; quadratic cost predicts ~16x, linear ~4x."),
    )
    table.add_row("Reception overhead", "eps > 0 required",
                  f"{result.tornado_overhead:.3f}", "0",
                  f"{result.rs_overhead:.3f}")
    table.add_row("Encoding cost", "(k+l) ln(1/eps) P", "linear",
                  "k (1+l) P", "quadratic")
    table.add_row(f"Time ratio at {result.size_ratio:g}x size",
                  f"~{result.size_ratio:g}",
                  f"{result.tornado_time_ratio:.1f}",
                  f"~{result.size_ratio ** 2:g}",
                  f"{result.rs_time_ratio:.1f}")
    table.add_row("Basic operation", "XOR", "XOR",
                  "field operations", "GF(2^m) table ops")
    return table


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    result = run(trials=args.trials, seed=args.seed)
    print(render_table(build_table(result)))


if __name__ == "__main__":
    main()
