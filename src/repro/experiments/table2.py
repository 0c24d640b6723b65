"""Table 2: encoding-time comparison across file sizes.

Paper grid: 250 KB .. 16 MB files of 1 KB packets, stretch factor 2,
codes Vandermonde RS, Cauchy RS, Tornado A, Tornado B.  Absolute 1998
UltraSPARC timings do not transfer; the reproduction claim is the
*shape*: RS times grow quadratically and leave the feasible range, the
Tornado codes grow linearly and stay in fractions of a second.

Reed-Solomon at the largest sizes is genuinely prohibitive (that is the
paper's own point: 30,802 s for 16 MB Cauchy encoding), so by default RS
columns are measured up to ``--rs-max-kb`` and extrapolated quadratically
above it, clearly marked with ``~``.  Pass a larger ``--rs-max-kb`` to
measure more of the grid for real.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.codes.tornado.presets import tornado_a, tornado_b
from repro.experiments.report import Table, render_table, seconds
from repro.sim.timemodel import time_rs_encode, time_tornado_encode

#: File sizes of the paper's grid, in KB (1 KB packets -> k = size).
PAPER_SIZES_KB = [250, 500, 1000, 2000, 4000, 8000, 16000]

#: Paper-reported encoding seconds (Table 2), for side-by-side printing.
PAPER_TABLE2 = {
    "vandermonde": {250: 9.0, 500: 39.0, 1000: 150.0, 2000: 623.0},
    "cauchy": {250: 4.6, 500: 19.0, 1000: 93.0, 2000: 442.0,
               4000: 1717.0, 8000: 6994.0, 16000: 30802.0},
    "tornado-a": {250: 0.06, 500: 0.12, 1000: 0.26, 2000: 0.53,
                  4000: 1.06, 8000: 2.13, 16000: 4.33},
    "tornado-b": {250: 0.11, 500: 0.15, 1000: 0.25, 2000: 0.50,
                  4000: 0.96, 8000: 1.72, 16000: 3.23},
}


@dataclass
class TimingCell:
    seconds: float
    extrapolated: bool = False

    def __str__(self) -> str:
        marker = "~" if self.extrapolated else ""
        return marker + seconds(self.seconds)


@dataclass
class TimingGrid:
    """One timing table's measurements (Table 2 here, Table 3 beside it)."""

    sizes_kb: List[int]
    cells: Dict[str, Dict[int, TimingCell]] = field(default_factory=dict)
    #: packets each Tornado run consumed, per preset then size, where the
    #: timer reports it (Table 3's decodes; empty for Table 2's encodes).
    tornado_packets_used: Dict[str, Dict[int, int]] = field(
        default_factory=dict)


@dataclass(frozen=True)
class TimingTable:
    """One of the paper's two timing tables: what to time for each cell
    and what to print around the grid.

    ``time_rs(size, payload, construction, seed=)`` returns seconds;
    ``time_tornado(code, payload, seed=)`` returns ``(seconds, packets
    used or None)``.  ``rs_max_kb`` is the default largest size at which
    Reed-Solomon is timed for real.
    """

    description: str
    title: str
    footnote: str
    paper: Dict[str, Dict[int, float]]
    time_rs: Callable[..., float]
    time_tornado: Callable[..., Tuple[float, Optional[int]]]
    rs_max_kb: int

    def run(self, sizes_kb: Optional[List[int]] = None, payload: int = 1024,
            rs_max_kb: Optional[int] = None, seed: int = 0) -> TimingGrid:
        """Measure (and where flagged, extrapolate) the grid.

        Sizes above ``rs_max_kb`` extend the largest measured RS timing
        with the k^2 model the paper itself uses.
        """
        sizes = sizes_kb if sizes_kb is not None else PAPER_SIZES_KB
        if rs_max_kb is None:
            rs_max_kb = self.rs_max_kb
        result = TimingGrid(sizes_kb=sizes)
        for construction in ("vandermonde", "cauchy"):
            cells: Dict[int, TimingCell] = {}
            base = 0
            for size in sizes:
                if size <= rs_max_kb:
                    base = max(base, size)
                    cells[size] = TimingCell(
                        self.time_rs(size, payload, construction, seed=seed))
                else:
                    cells[size] = TimingCell(
                        cells[base].seconds * (size / base) ** 2,
                        extrapolated=True)
            result.cells[construction] = cells
        for label, factory in (("tornado-a", tornado_a),
                               ("tornado-b", tornado_b)):
            cells, used = {}, {}
            for size in sizes:
                elapsed, needed = self.time_tornado(
                    factory(size, seed=seed), payload, seed=seed)
                cells[size] = TimingCell(elapsed)
                if needed is not None:
                    used[size] = needed
            result.cells[label] = cells
            result.tornado_packets_used[label] = used
        return result

    def build_table(self, result: TimingGrid) -> Table:
        """Measured columns beside the paper's Cauchy and Tornado A ones."""
        table = Table(
            title=self.title,
            header=["SIZE", "Vandermonde", "Cauchy", "Tornado A", "Tornado B",
                    "paper Cauchy", "paper Tornado A"],
            footnote=self.footnote,
        )
        for size in result.sizes_kb:
            label = f"{size} KB" if size < 1000 else f"{size // 1000} MB"
            paper_c = self.paper["cauchy"].get(size)
            paper_t = self.paper["tornado-a"].get(size)
            table.add_row(
                label,
                result.cells["vandermonde"][size],
                result.cells["cauchy"][size],
                result.cells["tornado-a"][size],
                result.cells["tornado-b"][size],
                seconds(paper_c) if paper_c else "n/a",
                seconds(paper_t) if paper_t else "n/a",
            )
        return table

    def main(self, argv=None) -> None:
        parser = argparse.ArgumentParser(description=self.description)
        parser.add_argument("--sizes", type=int, nargs="*", default=None,
                            help="file sizes in KB (default: paper grid)")
        parser.add_argument("--rs-max-kb", type=int, default=self.rs_max_kb,
                            help="largest size at which RS is timed for real")
        parser.add_argument("--payload", type=int, default=1024)
        parser.add_argument("--seed", type=int, default=0)
        args = parser.parse_args(argv)
        result = self.run(sizes_kb=args.sizes, payload=args.payload,
                          rs_max_kb=args.rs_max_kb, seed=args.seed)
        print(render_table(self.build_table(result)))


def _encode_seconds(code, payload: int, seed: int) -> Tuple[float, None]:
    return time_tornado_encode(code, payload, seed=seed), None


TABLE2 = TimingTable(
    description=__doc__,
    title="Table 2: Encoding times (measured here vs paper's 1998 "
          "UltraSPARC)",
    footnote="~ marks quadratic extrapolation beyond --rs-max-kb "
             "(the paper's own cost model); paper columns are the "
             "published 167 MHz UltraSPARC numbers.",
    paper=PAPER_TABLE2,
    time_rs=time_rs_encode,
    time_tornado=_encode_seconds,
    rs_max_kb=1000,
)
run, build_table, main = TABLE2.run, TABLE2.build_table, TABLE2.main

if __name__ == "__main__":
    main()
