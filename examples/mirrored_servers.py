#!/usr/bin/env python3
"""Downloading from multiple mirror sites at once (paper Section 8).

"If the sources use ideal digital fountains to transmit the data,
clients can access multiple sources simultaneously, and aggregate all
the packets they receive to recover the data efficiently."  The catch
the paper notes: with a small stretch factor the mirrors' carousels
overlap, so some received packets are duplicates.  This example
measures exactly that trade-off: download speedup from aggregation
versus the duplicate rate, for mirrors that share one code.

The download itself is the library's
``repro.fountain.aggregate.simulate_aggregate_download``, which seeds
its mirrors' carousel orders from the rng it is given — so the numbers
differ from earlier versions of this example, which seeded them by hand.

Run:  python examples/mirrored_servers.py
"""

import numpy as np

from repro import tornado_a
from repro.fountain.aggregate import simulate_aggregate_download
from repro.net.loss import BernoulliLoss

K = 1000
SEED = 9


def main() -> None:
    code = tornado_a(K, seed=SEED)
    loss = BernoulliLoss(0.15)
    rng = np.random.default_rng(4)

    print(f"{'mirrors':>8}  {'slots':>6}  {'speedup':>8}  {'received':>9}  "
          f"{'duplicates':>10}")
    base_slots = None
    for mirrors in (1, 2, 3, 4):
        # Each mirror carousels the same encoding in its own random
        # order; a wall-clock slot carries one packet from every mirror.
        result = simulate_aggregate_download(code, mirrors, loss, rng=rng,
                                             max_cycles=4)
        if base_slots is None:
            base_slots = result.slots
        print(f"{mirrors:>8}  {result.slots:>6}  "
              f"{base_slots / result.slots:>8.2f}x  "
              f"{result.stats.total_received:>9}  "
              f"{result.stats.duplicates:>10}")
    print("\naggregation cuts download time; duplicates stay modest because")
    print("each mirror permutes the same stretch-2 encoding independently")
    print("(the paper's Section 8 notes bigger stretch factors reduce them")
    print("further at the cost of decoder memory)")


if __name__ == "__main__":
    main()
