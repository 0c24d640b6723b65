"""Table 3: decoding-time comparison across file sizes.

Protocol from the paper: "for both the Cauchy and the Vandermonde codes,
we assume that k/2 original file packets and k/2 redundant packets were
used to recover the original file" (the stretch-2 carousel steady
state); the Tornado codes decode from their own (1+eps)k random packet
sets.  As with Table 2, RS at the top of the grid is extrapolated with
its quadratic model unless ``--rs-max-kb`` is raised.
"""

from __future__ import annotations

from repro.experiments.table2 import TimingTable
from repro.sim.timemodel import time_rs_block_decode, time_tornado_decode

#: Paper-reported decoding seconds (Table 3).
PAPER_TABLE3 = {
    "vandermonde": {250: 11.0, 500: 32.0, 1000: 161.0, 2000: 1147.0},
    "cauchy": {250: 2.06, 500: 8.4, 1000: 40.5, 2000: 199.0,
               4000: 800.0, 8000: 3166.0, 16000: 13629.0},
    "tornado-a": {250: 0.06, 500: 0.09, 1000: 0.14, 2000: 0.19,
                  4000: 0.40, 8000: 0.87, 16000: 1.75},
    "tornado-b": {250: 0.88, 500: 1.02, 1000: 1.27, 2000: 1.55,
                  4000: 2.00, 8000: 2.90, 16000: 4.70},
}

TABLE3 = TimingTable(
    description=__doc__,
    title="Table 3: Decoding times (measured here vs paper's 1998 "
          "UltraSPARC)",
    footnote="RS decodes from k/2 source + k/2 redundant packets; "
             "Tornado from its decode-threshold packet set.  ~ marks "
             "quadratic extrapolation beyond --rs-max-kb.",
    paper=PAPER_TABLE3,
    time_rs=time_rs_block_decode,
    time_tornado=time_tornado_decode,
    rs_max_kb=500,
)
run, build_table, main = TABLE3.run, TABLE3.build_table, TABLE3.main

if __name__ == "__main__":
    main()
