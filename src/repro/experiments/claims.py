"""The paper's claims, each measured by its runner at tier-1 scale.

One :class:`Claim` per claim: the claim in a sentence, the paper's value
(read from the runner's constants; ``None`` for a shape claim), a
measure of what the runner's ``run(...)`` returns, and the closed band
it must lie in: for a timing, a floor on the ratio of two timings at one
packet size, set below the lowest ratio measured on a CPU-loaded
two-core machine; for a count, a tight band.  A claim whose paper value lies outside
its band is a *known gap* and says why; the band still holds the
measured value.  ``tests/test_paper_claims.py`` asserts them all;
``python -m repro.experiments.claims`` prints them measured; README's
table is :func:`markdown_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import figure2, figure4, figure5, figure6, figure8
from repro.experiments import table1, table2, table3, table4, table5


#: each runner's one tier-1 call; every claim measures one of these.
RUNS: Dict[str, Callable[[], Any]] = {
    "table1": partial(table1.run, 60, 240, payload=64, trials=4),
    "table2": partial(table2.run, [256, 512], payload=128, rs_max_kb=256),
    "table3": partial(table3.run, [256, 512], payload=128, rs_max_kb=256),
    "table4": partial(table4.run, sizes_kb=[4000], loss_rates=[0.1, 0.5],
                      threshold_trials=10, search_trials=10, payload=64),
    "table5": table5.run,
    "figure2": partial(figure2.run, k=1024, trials=12, seed=0),
    "figure4": partial(figure4.run, k=512, loss_rates=[0.5],
                       receiver_counts=[1, 10, 100, 1000, 10000],
                       pool_size=30, threshold_trials=15, experiments=20,
                       seed=2),
    "figure5": partial(figure5.run, sizes_kb=[128, 1024], loss_rates=[0.5],
                       num_receivers=50, pool_size=25, threshold_trials=12,
                       experiments=10, seed=3),
    "figure6": partial(figure6.run, sizes_kb=[150], num_receivers=12,
                       trace_length=20_000, threshold_trials=8, seed=4),
    "figure8": partial(figure8.run, k=300,
                       single_loss_rates=(0.1, 0.3, 0.6, 0.4),
                       layered_receivers=4, seed=5),
}


@dataclass(frozen=True)
class Claim:
    """``measure`` reads a number off ``RUNS[runner]()``'s result; ``gap``
    says why the paper's value lies outside ``band`` ("" if it does not)."""

    runner: str
    claim: str
    paper: Optional[float]
    measure: Callable[[Any], float]
    band: Tuple[float, float]
    gap: str = ""

    @property
    def artefact(self) -> str:
        kind = self.runner.rstrip("0123456789")
        return f"{kind.title()} {self.runner[len(kind):]}"

    @property
    def known_gap(self) -> bool:
        return self.paper is not None and not self.holds(self.paper)

    def holds(self, value: float) -> bool:
        return self.band[0] <= value <= self.band[1]


INF = math.inf
_A, _B = figure2.PAPER_STATS["tornado-a"], figure2.PAPER_STATS["tornado-b"]
_T2, _T3, _T4 = table2.PAPER_TABLE2, table3.PAPER_TABLE3, table4.PAPER_TABLE4
_A_GAP = ("the preset's two-point 3/20 left degrees' density-evolution "
          "floor is 0.0986, above the paper's mean and max (ROADMAP item 20)")


def _faster(r, size: int, slow: str) -> float:
    return r.cells[slow][size].seconds / r.cells["tornado-a"][size].seconds


CLAIMS = (
    Claim("table1", "Reed-Solomon decodes from exactly k packets", None,
          lambda r: r.rs_overhead, (0, 0)),
    Claim("table1", "Tornado A needs (1 + eps) k packets, eps > 0", None,
          lambda r: r.tornado_overhead, (0.05, 0.35)),
    Claim("table1", "RS encode time grows faster with size than Tornado's",
          None, lambda r: r.rs_time_ratio / r.tornado_time_ratio, (2, INF)),
    Claim("table2", "Tornado A encodes 256 KB faster than Cauchy RS "
          "(paper: 250 KB)", _T2["cauchy"][250] / _T2["tornado-a"][250],
          lambda r: _faster(r, 256, "cauchy"), (2, INF)),
    Claim("table3", "Tornado A decodes 256 KB faster than Cauchy RS "
          "(paper: 250 KB)", _T3["cauchy"][250] / _T3["tornado-a"][250],
          lambda r: _faster(r, 256, "cauchy"), (1.5, INF)),
    Claim("table4", "Tornado A decodes 4 MB faster than interleaving of "
          "equal reliability at 10 % loss", _T4[4000][0.1],
          lambda r: r.entries[4000][0.1].speedup, (1.2, INF)),
    Claim("table4", "the speedup grows with loss: 50 % over 10 %",
          _T4[4000][0.5] / _T4[4000][0.1], lambda r: r.entries[4000][0.5]
          .speedup / r.entries[4000][0.1].speedup, (2, INF)),
    Claim("table5", "the reverse-binary rule regenerates the paper's "
          "4-layer schedule", None,
          lambda r: float(r[0] == table5.PAPER_TABLE5), (1, 1)),
    Claim("table5", "the One Level Property holds over a whole encoding",
          None, lambda r: float(r[1]), (1, 1)),
    Claim("figure2", "Tornado A mean reception overhead", _A["mean"],
          lambda r: r.stats["tornado-a"].mean, (0.12, 0.19), _A_GAP),
    Claim("figure2", "Tornado A max reception overhead", _A["max"],
          lambda r: r.stats["tornado-a"].maximum, (0.15, 0.26), _A_GAP),
    Claim("figure2", "Tornado B mean reception overhead", _B["mean"],
          lambda r: r.stats["tornado-b"].mean, (0.015, 0.045)),
    Claim("figure2", "Tornado B max reception overhead", _B["max"],
          lambda r: r.stats["tornado-b"].maximum, (0.04, 0.10)),
    Claim("figure4", "at 10^4 receivers Tornado A's worst case beats "
          "interleaving with k = 20 blocks", None,
          lambda r: r.curves[0.5]["tornado-a"][-1].worst
          / r.curves[0.5]["interleaved k=20"][-1].worst, (1.1, INF)),
    Claim("figure5", "interleaved (k = 20) efficiency falls as the file "
          "grows (1 MB over 128 KB)", None,
          lambda r: r.values[0.5]["interleaved k=20"][0][1]
          / r.values[0.5]["interleaved k=20"][0][0], (0, 0.95)),
    Claim("figure6", "the synthetic traces lose about the MBone traces' "
          "18 %", None, lambda r: r.average_trace_loss, (0.12, 0.24)),
    Claim("figure6", "every receiver completes on every code", None,
          lambda r: min(x.completed_receivers / x.total_receivers
                        for x in r.results), (1, 1)),
    Claim("figure8", "one layer below 50 % loss: no duplicate arrives "
          "(distinctness efficiency)", None,
          lambda r: min(x.distinctness_efficiency for x in r.single_layer
                        if x.observed_loss < 0.5), (1, 1)),
    Claim("figure8", "one layer above 50 % loss: the carousel wraps, "
          "duplicates arrive", None,
          lambda r: max(x.distinctness_efficiency for x in r.single_layer
                        if x.observed_loss > 0.5), (0, 0.99)),
)


def _row(c: Claim) -> List[str]:
    """A claim's artefact, runner, sentence, paper value, band, status."""
    return [c.artefact, f"`python -m repro.experiments.{c.runner}`", c.claim,
            "shape" if c.paper is None else f"{c.paper:.4g}",
            "[{:g}, {:g}]".format(*c.band).replace("inf", "∞"),
            "known gap: " + c.gap if c.known_gap else "holds"]


def markdown_table() -> str:
    """README's "Reproducing the paper" table: one row per claim."""
    return "\n".join(["| Artefact | Runner | Claim | Paper | Band | Status |",
                      "| --- | --- | --- | --- | --- | --- |"]
                     + [f"| {' | '.join(_row(c))} |" for c in CLAIMS])


def report(results: Dict[str, Any]) -> str:
    """Every claim measured in ``results`` (each runner's result by its
    :data:`RUNS` name), marked ok, gap or FAILS."""
    lines = []
    for c in CLAIMS:
        value = float(c.measure(results[c.runner]))
        verdict = ("gap" if c.known_gap else "ok") if c.holds(value) \
            else "FAILS"
        artefact, _, claim, paper, band, _ = _row(c)
        lines.append(f"{verdict:5} {artefact:16} {claim}\n      paper "
                     f"{paper}  measured {value:.4g}  band {band}")
    return "\n".join(lines)


def main() -> None:
    print(report({name: call() for name, call in RUNS.items()}))


if __name__ == "__main__":
    main()
